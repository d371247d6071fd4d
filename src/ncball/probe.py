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

from .freealg import BATCH_BYTES, BudgetExceededError, FreePolynomial, NCFunction, left_divide, walk_levels
from .mattuple import MatrixTuple, _monomials, _spectral_norm, _spectral_norms, _word_values
from .opball import OperatorBall, Pencil, ball_shorthand, membership, pencil_eval_batch, polydisk
from .realize import Realization, _RemainderRows

MULTISTART_MARGINS = (0.5, 0.1, 0.01, 0.001)
INITIAL_STEP = 0.1
MIN_STEP = 1e-6
REGULARITY_WORD_BUDGET = 10**4  # d^N: a per-evaluation size bound, as each target value holds d^N blocks per point
BOUNDARY_THRESHOLD = 1.0 - 1e-6
# corner-approach ladder injected into bidisk level-1 multistarts; the deeper
# rungs are left to hill climbing so divergence shows up as climb growth
INJECTION_EPS = (0.1, 0.045, 0.014)
# the climb evaluates this many candidates ahead, doubling up to the cap
# after a stack with no improvement and starting over after one
CLIMB_CHUNK = 8
CLIMB_CHUNK_MAX = 64


def corner_path(eps: float) -> tuple[complex, complex]:
    """The builtin path (1-eps^2+i*eps, 1-eps^2-i*eps) toward the corner (1,1).

    Each coordinate has squared modulus 1 - eps^2 + eps^4 < 1, so the path
    stays strictly inside the bidisk while the denominator x1+x2-2 = -2 eps^2
    collapses quadratically.
    """
    x1 = complex(1.0 - eps * eps, eps)
    return (x1, x1.conjugate())


def _chunk_size(pencil: Pencil, n: int) -> int:
    """How many level-n points one stack holds under BATCH_BYTES of (p n) x (q n) pencil values."""
    return max(1, BATCH_BYTES // (16 * pencil.p * n * pencil.q * n))


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
    ball: OperatorBall, n: int, margins, rng: np.random.Generator, states: list[tuple[int, int]] | None = None
) -> np.ndarray:
    """One Gaussian draw per margin, rescaled so that ||Q(X)|| = 1 - its margin.

    Returns a (B, d, n, n) stack.  Point i is drawn by rng, whose PCG64 is
    first set to states[i] when states are given; one standard_normal fills
    its real and then its imaginary parts, as two draws of (d, n, n) would, so
    it keeps its bits in any stack.
    """
    for margin in margins:
        if not 0.0 < margin < 1.0:
            raise ValueError(f"margin must be in (0, 1), got {margin}")
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    bit_generator = rng.bit_generator
    buf = np.empty((len(margins), 2, ball.d, n, n))

    def draw(i: int, state: tuple[int, int] | None) -> None:
        if state is not None:
            pcg = {"state": state[0], "inc": state[1]}
            bit_generator.state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=buf[i])

    for i in range(len(margins)):
        draw(i, None if states is None else states[i])
    raw = buf[:, 0] + 1j * buf[:, 1]
    s = ball.norms_at(raw)
    for i in np.flatnonzero(s <= 0.0):
        if states is not None:
            # an all-zero draw is redrawn from the same stream: replay the first draw
            draw(i, states[i])
        for _ in range(99):
            draw(i, None)
            raw[i] = buf[i, 0] + 1j * buf[i, 1]
            s[i] = ball.norms_at(raw[i : i + 1])[0]
            if s[i] > 0.0:
                break
        else:
            raise RuntimeError("100 degenerate all-zero draws in a row; rng is broken")
    factors = (1.0 - np.asarray(margins, dtype=float)) / s
    return raw * factors.astype(complex)[:, None, None, None]


def _sample_chunks(ball: OperatorBall, n: int, draws) -> Iterator[np.ndarray]:
    """Stacks of the level-n points of draws, a list of (seed, margin), chunk by chunk.

    The point of (seed, margin) is sample_in_ball(ball, n, margin,
    default_rng(seed)), bit for bit: one reused generator is set to the
    PCG64 state that default_rng(seed) starts from.
    """
    _check_seeder()
    rng = np.random.Generator(np.random.PCG64())
    step = _chunk_size(ball.pencil, n)
    for start in range(0, len(draws), step):
        chunk = draws[start : start + step]
        states = _pcg64_states([seed for seed, _ in chunk])
        yield _sample_stack(ball, n, [margin for _, margin in chunk], rng, states)


def sample_in_ball(ball: OperatorBall, n: int, margin: float, rng: np.random.Generator) -> MatrixTuple:
    """A Gaussian draw rescaled so that ||Q(X)|| = 1 - margin: the sampler's batch of one."""
    return MatrixTuple(_sample_stack(ball, n, [margin], rng)[0])


@dataclass(frozen=True)
class TrajectoryRow:
    iteration: int
    label: str
    value: float
    boundary_distance: float


@dataclass
class ProbeReport:
    """Deterministic record of one sup-norm search.

    ``settled`` is a heuristic: False when the running best kept growing as
    samples approached the boundary or while climbing, which is the numerical
    signature of an unbounded target.  ``best_value`` is only ever a lower
    bound for the true supremum.
    """

    target: str
    ball: str
    level: int
    budget: int
    seed: int
    best_value: float = 0.0
    argmax: MatrixTuple | None = None
    trajectory: list[TrajectoryRow] = field(default_factory=list)
    evaluations: int = 0
    failures: int = 0
    settled: bool = True
    margin_best: dict = field(default_factory=dict)


_MARGIN_LOGS = np.log10(MULTISTART_MARGINS)


def _margin_bins(distances: np.ndarray) -> list[float]:
    """The margin of MULTISTART_MARGINS nearest in log10 to each distance (floored at 1e-12); ties go to the first."""
    scales = np.log10(np.maximum(distances, 1e-12))
    nearest = np.abs(_MARGIN_LOGS - scales[:, None]).argmin(axis=1)
    return [MULTISTART_MARGINS[i] for i in nearest]


def estimate_sup(
    f,
    ball: OperatorBall,
    n: int,
    budget: int,
    seed: int,
    target_label: str | None = None,
    margins: tuple[float, ...] | None = None,
) -> ProbeReport:
    """Estimate sup ||f(X)|| over level-n points of the ball.

    Spends half the budget on a random multistart over the margin schedule
    (0.5, 0.1, 0.01, 0.001), plus a deterministic corner-path pool on the
    level-1 bidisk, then hill climbs from the best point by perturbing one
    real or imaginary entry at a time with rescale-to-membership projection
    and step halving from 0.1 down to 1e-6.  Evaluation failures are counted
    and skipped.  The report is reproducible bit for bit from (seed, budget).
    The pencil norm of each point is taken once per stack and gives its
    boundary distance; only a climb candidate rescaled toward the boundary is
    measured again, since |c| ||Q(X)|| need not equal ||Q(cX)|| to the bit.
    Where f has the ball's pencil, the same norms go to ``f.eval_batch`` as
    ``pencil_norms``, so its resolvent guard needs no condition number where
    the norm certifies it; any other f gets ``pencil_norms=None``.

    ``f`` is evaluated through ``f.eval_batch`` on stacks of points, in parts
    whose values fit BATCH_BYTES; since every sample keeps its bits in any
    stack, and the climb records only the candidates it would have tried one
    at a time, the report is the same as that of a search evaluating one
    point at a time.

    Passing ``margins`` replaces the multistart margin schedule.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    schedule = MULTISTART_MARGINS if margins is None else tuple(margins)
    if not schedule:
        raise ValueError("margin schedule must be nonempty")
    report = ProbeReport(
        target=target_label if target_label is not None else _describe(f),
        ball=ball_shorthand(ball) or f"pencil(d={ball.d},p={ball.pencil.p},q={ball.pencil.q})",
        level=n,
        budget=budget,
        seed=seed,
    )

    part_size = 1  # points whose values fit BATCH_BYTES, learned from the first evaluation
    # the ball's norms are the target's own pencil norms: its resolvent guard may use them
    certify = getattr(f, "pencil", None) == ball.pencil

    def evaluate(xs: np.ndarray, s: np.ndarray) -> list[float | None]:
        """||f(X)|| at each point of a stack of pencil norms s, part by part; None where it failed."""
        nonlocal part_size
        out = []
        while len(out) < len(xs):
            part = slice(len(out), len(out) + part_size)
            values, failed = f.eval_batch(xs[part], pencil_norms=s[part] if certify else None)
            norms = np.zeros(len(values))
            if not failed.all():
                norms[~failed] = _spectral_norms(values[~failed])
            out += [None if bad else float(norm) for bad, norm in zip(failed, norms)]
            part_size = max(1, BATCH_BYTES // values[0].nbytes)
        return out

    def record(x: np.ndarray, label: str, distance: float, value: float | None) -> None:
        if value is None:
            report.failures += 1
            return
        report.trajectory.append(TrajectoryRow(report.evaluations, label, value, distance))
        report.evaluations += 1
        if value > report.best_value or report.argmax is None:
            report.best_value = value
            report.argmax = MatrixTuple(x)

    # multistart phase: the corner-path pool, then sample i drawn from seed + i
    n_samples = max(budget // 2, 1)
    injected: list[tuple[np.ndarray, str]] = []
    if ball.d == 2 and n == 1:
        for eps in INJECTION_EPS:
            point = MatrixTuple.scalars(corner_path(eps))
            if membership(ball, point).is_inside:
                injected.append((point.entries, f"path:{eps:g}"))
    injected = injected[:n_samples]
    draws = [(seed + i, schedule[i % len(schedule)]) for i in range(n_samples - len(injected))]
    labels = iter([label for _, label in injected] + [f"m{margin:g}" for _, margin in draws])
    head = [np.stack([x for x, _ in injected])] if injected else []
    for xs in itertools.chain(head, _sample_chunks(ball, n, draws)):
        s = ball.norms_at(xs)
        # |s - 1| is the membership distance: fl(s - 1) = -fl(1 - s)
        distances = np.abs(s - 1.0)
        bins = _margin_bins(distances)
        for x, label, distance, bin_key, value in zip(
            xs, itertools.islice(labels, len(xs)), distances.tolist(), bins, evaluate(xs, s)
        ):
            record(x, label, distance, value)
            if value is not None:
                report.margin_best[bin_key] = max(report.margin_best.get(bin_key, 0.0), value)
    multistart_best = report.best_value

    # hill-climbing phase from the multistart argmax: candidates are evaluated
    # a stack ahead, as if none improved, and recorded in order up to the
    # first improvement; the rest of the stack is dropped unrecorded
    remaining = budget - report.evaluations
    if report.argmax is not None and remaining > 0:
        current = report.argmax.entries
        current_value = report.best_value
        moves = list(itertools.product(range(ball.d), range(n), range(n), (1.0, 1j), (1.0, -1.0)))
        schedule_ahead = _climb_schedule(len(moves), INITIAL_STEP, 0, False)
        ahead = CLIMB_CHUNK
        cap = _chunk_size(ball.pencil, n)
        while remaining > 0:
            plan = list(itertools.islice(schedule_ahead, min(ahead, remaining, cap)))
            if not plan:
                break
            xs = np.repeat(current[None], len(plan), axis=0)
            for i, (step, move) in enumerate(plan):
                j, r, c, part, direction = moves[move]
                xs[i, j, r, c] += direction * step * part
            s = ball.norms_at(xs)
            out = np.flatnonzero(s > BOUNDARY_THRESHOLD)
            if len(out):
                # |c| s is not bitwise ||Q(cX)||: measure rescaled points afresh
                xs[out] *= (BOUNDARY_THRESHOLD / s[out]).astype(complex)[:, None, None, None]
                s[out] = ball.norms_at(xs[out])
            distances = np.abs(s - 1.0).tolist()
            for i, ((step, move), value) in enumerate(zip(plan, evaluate(xs, s))):
                record(xs[i], f"climb:{step:g}", distances[i], value)
                remaining -= 1
                if value is not None and value > current_value:
                    current = xs[i]
                    current_value = value
                    schedule_ahead = _climb_schedule(len(moves), step, move + 1, True)
                    ahead = CLIMB_CHUNK
                    break
            else:
                ahead = min(2 * ahead, CLIMB_CHUNK_MAX)

    # settled heuristic: margin ladder ratio and climb growth
    near = report.margin_best.get(0.001, 0.0)
    mid = report.margin_best.get(0.1, 0.0)
    ladder_divergent = mid > 0.0 and near > 10.0 * mid
    climb_divergent = multistart_best > 0.0 and report.best_value > 1.25 * multistart_best
    report.settled = not (ladder_divergent or climb_divergent)
    return report


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


def _describe(f) -> str:
    if isinstance(f, FreePolynomial):
        return f"poly:{f}"
    if isinstance(f, Realization):
        return f"realization(d={f.d},m={f.m},{f.mode})"
    return type(f).__name__


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


def blowup_scan(g, path, eps_list, ball: OperatorBall) -> BlowupReport:
    """Evaluate g along a scalar path, verifying strict membership first.

    ``g`` is called with the level-1 MatrixTuple of each path point, so an nc
    function is passed as ``f.eval``; ``path`` maps eps to a scalar tuple (use
    corner_path for the builtin).
    """
    if not callable(g):
        raise TypeError(f"cannot evaluate an object of type {type(g).__name__}")
    rows = []
    for eps in eps_list:
        x = MatrixTuple.scalars(path(eps))
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
    source_ball: OperatorBall,
    target_pencil: Pencil,
    samples: int,
    seed: int,
    levels=(1, 2, 3),
) -> DichotomyResult:
    """Classify ||P(F(X))|| over sampled X as all-interior, all-boundary, or mixed."""
    maps = list(maps)
    if len(maps) != target_pencil.d:
        raise ValueError(f"map has {len(maps)} components but the target pencil has d={target_pencil.d}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not levels:
        raise ValueError("levels must name at least one level")
    norms = []
    # sample i is drawn at level levels[i % L] from seed + i; the norms are
    # taken level by level, which leaves their max and min as they are
    for first, level in enumerate(levels[:samples]):
        draws = [
            (seed + i, MULTISTART_MARGINS[(i // len(levels)) % len(MULTISTART_MARGINS)])
            for i in range(first, samples, len(levels))
        ]
        for xs in _sample_chunks(source_ball, level, draws):
            image = np.stack([p.eval_batch(xs)[0] for p in maps], axis=1)
            norms.extend(_spectral_norms(pencil_eval_batch(target_pencil, image)).tolist())
    max_norm, min_norm = max(norms), min(norms)
    if max_norm < BOUNDARY_THRESHOLD:
        kind = "AllInterior"
    elif min_norm > BOUNDARY_THRESHOLD:
        kind = "AllBoundary"
    else:
        kind = "Mixed"
    return DichotomyResult(kind, max_norm, min_norm, samples)


def builtin_dichotomy_case(name: str):
    """The named builtin case: (maps, source ball, target pencil)."""
    ball = polydisk(2)
    z1 = FreePolynomial.generator(2, 1)
    z2 = FreePolynomial.generator(2, 2)
    if name == "half":
        return (0.5 * z1, 0.5 * z2), ball, ball.pencil
    if name == "identity":
        return (z1, z2), ball, ball.pencil
    if name == "boundary":
        one = FreePolynomial.constant(2, 1.0)
        zero = FreePolynomial.zero(2)
        return (one, zero), ball, ball.pencil
    raise ValueError(f"unknown dichotomy case {name!r} (use half, identity, or boundary)")


@dataclass(frozen=True)
class MonomialRow(NCFunction):
    """The row [X^{w_1} ... X^{w_k}] over all words of one size, length-lex."""

    d: int
    size: int

    def _values(self, xs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        count, n = xs.shape[0], xs.shape[-1]
        top = np.concatenate([xws for k, (xws,) in walk_levels(self.d, self.size, _monomials(xs)) if k == self.size])
        return top.transpose(1, 2, 0, 3).reshape(count, n, -1), {}


@dataclass(frozen=True)
class RemainderColumn(_RemainderRows):
    """col(g_w(X)) over all words of one size, sharing a single resolvent solve."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"remainder columns are indexed by a word size >= 1, got {self.size}")
        # the prefix rows of all words of the size, length-lex, walked once
        levels = walk_levels(self.d, self.size, (None, self.base.row_step))
        object.__setattr__(self, "rows", np.concatenate([rows for k, (rows,) in levels if k == self.size])[:, 0])


@dataclass(frozen=True)
class QuotientColumn(NCFunction):
    """col(f_w(X)) of left-division quotients of a polynomial with no low words."""

    p: FreePolynomial
    size: int
    # f_w over all words of the size, length-lex, divided out once
    quotients: tuple[FreePolynomial, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "quotients", tuple(left_divide(self.p, self.size).values()))

    @property
    def d(self) -> int:
        return self.p.d

    def _values(self, xs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        values = _word_values(xs, [v.letters for q in self.quotients for v in q.terms])
        return np.concatenate([q._term_sum(values, (len(xs), *xs.shape[-2:])) for q in self.quotients], axis=1), {}


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


def regularity_factors(f, order: int, ball: OperatorBall, n: int, budget: int, seed: int) -> RegularityReport:
    """Estimate sup||row(X^w)|| and sup||col(g_w(X))|| over words of size N.

    Each factor gets the full sample budget.  The column stacks remainder
    factors for a realization, or left-division quotients for a polynomial
    whose words all have size >= N.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if ball.d**order > REGULARITY_WORD_BUDGET:
        raise BudgetExceededError(f"{ball.d}^{order} words exceed the budget {REGULARITY_WORD_BUDGET}")
    row_target = MonomialRow(ball.d, order)
    if isinstance(f, Realization):
        col_target = RemainderColumn(f, order)
    elif isinstance(f, FreePolynomial):
        col_target = QuotientColumn(f, order)
    else:
        raise TypeError(f"regularity_factors supports polynomials and realizations, got {type(f).__name__}")
    row_report = estimate_sup(row_target, ball, n, budget, seed, target_label=f"row(X^w,|w|={order})")
    col_report = estimate_sup(col_target, ball, n, budget, seed, target_label=f"col(g_w,|w|={order})")
    return RegularityReport(row=row_report, col=col_report)
