"""Algebraic nc subvarieties of operator balls.

A variety is the common zero set, inside an ambient ball, of finitely many
free polynomials.  Membership is checked numerically at every level;
homogeneity (closure under scaling by the open unit disk) is a sampled
property reported with witnesses, never a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freealg import FreePolynomial, parse
from .mattuple import MatrixTuple, _spectral_norm
from .opball import OperatorBall, ball_from_shorthand, ball_shorthand, membership, pencil_from_dict, pencil_to_dict, polydisk

VARIETY_TOL = 1e-10


@dataclass(frozen=True)
class AlgebraicVariety:
    ambient: OperatorBall
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
    """True iff x is strictly inside the ambient ball and kills every generator."""
    if x.d != variety.d:
        raise ValueError(f"point with d={x.d} tested against a variety with d={variety.d}")
    if not membership(variety.ambient, x).is_inside:
        return False
    return all(_spectral_norm(g.eval(x)) <= tol for g in variety.generators)


def generator_defect(variety: AlgebraicVariety, x: MatrixTuple) -> float:
    """max over generators of ||g(x)||, the quantity membership thresholds."""
    return max(_spectral_norm(g.eval(x)) for g in variety.generators)


@dataclass(frozen=True)
class HomogeneityReport:
    holds: bool
    witness_point: MatrixTuple | None = None
    witness_scale: complex | None = None
    defect: float = 0.0

    def __bool__(self) -> bool:
        return self.holds


def homogeneity_sample(
    variety: AlgebraicVariety,
    samples,
    lambdas=None,
    seed: int = 0,
    num_lambdas: int = 20,
    tol: float = VARIETY_TOL,
) -> HomogeneityReport:
    """Check that scaled copies of the supplied variety points stay in the variety.

    ``samples`` are caller-produced in-variety points (supply a parameterization
    such as T -> (T, T^2)); an out-of-variety sample is an error, not a witness.
    ``lambdas`` defaults to ``num_lambdas`` seeded draws from the open unit disk.
    """
    samples = list(samples)
    if lambdas is None:
        rng = np.random.default_rng(seed)
        radii = np.sqrt(rng.uniform(0.0, 1.0, num_lambdas))
        phases = rng.uniform(0.0, 2.0 * np.pi, num_lambdas)
        lambdas = [complex(r * np.cos(t), r * np.sin(t)) for r, t in zip(radii, phases)]
    else:
        lambdas = [complex(v) for v in lambdas]
        for scale in lambdas:
            if abs(scale) >= 1.0:
                raise ValueError(f"lambda must lie in the open unit disk, got |{scale}| = {abs(scale):.17g}")
    for x in samples:
        if not variety_membership(variety, x, tol):
            raise ValueError("sampler produced an out-of-variety point")
    for x in samples:
        for scale in lambdas:
            scaled = x.scale(scale)
            if not variety_membership(variety, scaled, tol):
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
    ball = shorthand if shorthand is not None else {"pencil": pencil_to_dict(variety.ambient.pencil)}
    return {"ball": ball, "generators": [str(g) for g in variety.generators]}


def variety_from_dict(obj: dict) -> AlgebraicVariety:
    try:
        raw_ball = obj["ball"]
        raw_generators = obj["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"variety object needs keys ball, generators: {exc}") from exc
    if isinstance(raw_ball, str):
        ball = ball_from_shorthand(raw_ball)
    else:
        ball = OperatorBall(pencil_from_dict(raw_ball["pencil"]))
    generators = tuple(parse(text, ball.d) for text in raw_generators)
    return AlgebraicVariety(ball, generators)
