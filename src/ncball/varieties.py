"""Algebraic nc subvarieties of operator balls.

A variety is the common zero set, inside an ambient ball, of finitely many
free polynomials.  Membership is checked numerically at every level;
homogeneity (closure under scaling by the open unit disk) is a sampled
property reported with witnesses, never a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freealg import FreePolynomial, _parse_finite
from .mattuple import MatrixTuple, _checked_size, _checked_tol, _spectral_norm, _unit_disk_points
from .opball import Pencil, ball_from_shorthand, ball_shorthand, membership, pencil_from_dict, pencil_to_dict, polydisk

VARIETY_TOL = 1e-10
NUM_LAMBDAS = 20  # the seeded scales homogeneity_sample draws when no lambdas are given


@dataclass(frozen=True)
class AlgebraicVariety:
    ambient: Pencil
    generators: tuple[FreePolynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.d != self.ambient.d:
                raise ValueError(f"generator in d={g.d} variables inside a ball with d={self.ambient.d}")

    @property
    def d(self) -> int:
        return self.ambient.d


def variety_membership(variety: AlgebraicVariety, x: MatrixTuple, tol: float = VARIETY_TOL) -> bool:
    """True iff x is strictly inside the ambient ball and generator_defect(variety, x) <= tol, a finite tol >= 0."""
    tol = _checked_tol(tol)
    if x.d != variety.d:
        raise ValueError(f"point with d={x.d} tested against a variety with d={variety.d}")
    if not membership(variety.ambient, x).is_inside:
        return False
    return generator_defect(variety, x) <= tol


def generator_defect(variety: AlgebraicVariety, x: MatrixTuple) -> float:
    """max over generators of ||g(x)||, the number membership thresholds: NaN if any is, 0.0 with no generators."""
    return float(np.max([_spectral_norm(g.eval(x)) for g in variety.generators], initial=0.0))


@dataclass(frozen=True)
class HomogeneityReport:
    holds: bool
    witness_point: MatrixTuple | None = None
    witness_scale: complex | None = None
    defect: float = 0.0

    def __bool__(self) -> bool:
        return self.holds


def homogeneity_sample(variety: AlgebraicVariety, samples, lambdas=None, seed: int = 0) -> HomogeneityReport:
    """Check that scaled copies of the supplied variety points stay in the variety.

    ``samples`` are caller-produced in-variety points (supply a parameterization
    such as T -> (T, T^2)); an out-of-variety sample is an error, not a witness.
    ``lambdas`` defaults to NUM_LAMBDAS seeded draws from the open unit disk.
    A verdict needs at least one sample and one scale: none is an error.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("samples must hold at least one point")
    if lambdas is None:
        lambdas = _unit_disk_points(np.random.default_rng(_checked_size(seed, "seed", 0)), NUM_LAMBDAS)
    else:
        lambdas = [complex(v) for v in lambdas]
        if not lambdas:
            raise ValueError("lambdas must hold at least one scale")
        for scale in lambdas:
            if not abs(scale) < 1.0:
                raise ValueError(f"lambda must lie in the open unit disk, got |{scale}| = {abs(scale):.17g}")
    for x in samples:
        if not variety_membership(variety, x):
            raise ValueError("sampler produced an out-of-variety point")
    for x in samples:
        for scale in lambdas:
            scaled = x.scale(scale)
            if not variety_membership(variety, scaled):
                return HomogeneityReport(
                    holds=False,
                    witness_point=x,
                    witness_scale=scale,
                    defect=generator_defect(variety, scaled),
                )
    return HomogeneityReport(holds=True)


def apply_poly_map(maps, x: MatrixTuple) -> MatrixTuple:
    """Evaluate a tuple of polynomials at x, producing a new matrix tuple."""
    return MatrixTuple(np.array([p.eval(x) for p in maps]))


def parabola_cubic_pair():
    """The pair of curves {(X, X^2)} and {(X, X^3)} in the bidisk.

    Returns (V1, V2, forward, backward) where V1 = zeros(Z2 - Z1^2),
    V2 = zeros(Z2 - Z1^3), forward G(X1, X2) = (X1, X1^3) maps V1 into V2,
    backward F(X1, X2) = (X1, X1^2) maps V2 into V1, and the two compose to
    the identity on the respective curves.  Both curves fail homogeneity
    (witness lambda = 1/2 at the scalar point (1/2, 1/4) resp. (1/2, 1/8)).
    """
    ball = polydisk(2)
    z1 = FreePolynomial.generator(2, 1)
    z2 = FreePolynomial.generator(2, 2)
    v1 = AlgebraicVariety(ball, (z2 - z1 * z1,))
    v2 = AlgebraicVariety(ball, (z2 - z1 * z1 * z1,))
    forward = (z1, z1 * z1 * z1)
    backward = (z1, z1 * z1)
    return v1, v2, forward, backward


# ---------------------------------------------------------------------------
# JSON form: {"ball": shorthand or {"pencil": {...}}, "generators": [strings]}


def variety_to_dict(variety: AlgebraicVariety) -> dict:
    shorthand = ball_shorthand(variety.ambient)
    ball = shorthand if shorthand is not None else {"pencil": pencil_to_dict(variety.ambient)}
    return {"ball": ball, "generators": [str(g) for g in variety.generators]}


def variety_from_dict(obj: dict) -> AlgebraicVariety:
    try:
        raw_ball = obj["ball"]
        raw_generators = obj["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"variety object needs keys ball, generators: {exc}") from exc
    if isinstance(raw_ball, str):
        ball = ball_from_shorthand(raw_ball)
    elif isinstance(raw_ball, dict) and "pencil" in raw_ball:
        ball = pencil_from_dict(raw_ball["pencil"])
    else:
        raise ValueError(f"variety ball must be a shorthand string or an object with key pencil, got {raw_ball!r}")
    if not isinstance(raw_generators, list) or not all(isinstance(text, str) for text in raw_generators):
        raise ValueError(f"variety generators must be a list of strings, got {raw_generators!r}")
    generators = tuple(_parse_finite(text, ball.d, "variety generator") for text in raw_generators)
    return AlgebraicVariety(ball, generators)
