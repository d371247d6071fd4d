"""Linear pencils and the matrix operator balls they cut out.

A pencil Q(Z) = sum_j Q_j Z_j with p x q coefficient matrices evaluates at a
level-n point X as the block matrix sum_j Q_j (x) X_j (Kronecker, coefficient
on the left).  The ball D_Q collects the X with ||Q(X)|| < 1 at every level;
Q determines it, so a Pencil is also the ball it cuts out.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .mattuple import (
    MatrixTuple,
    _checked_size,
    _owned_array,
    _seq_matmul,
    _spectral_norm,
    _spectral_norms,
    complex_from_json,
    complex_to_json,
    point_stack,
    sup_norm,
)

INDEPENDENCE_RTOL = 1e-10
MEMBERSHIP_TOL = 1e-9
ISOMETRY_TOL = 1e-10


# eq=False keeps the array-aware __eq__ below and leaves the class unhashable
@dataclass(frozen=True, eq=False, slots=True)
class Pencil:
    """d linearly independent p x q coefficient matrices, and the ball of the X with ||Q(X)|| < 1."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = _owned_array(self.coefficients, "pencil coefficients")
        if arr.ndim != 3:
            raise ValueError(f"expected shape (d, p, q), got {arr.shape}")
        d, p, q = arr.shape
        if min(d, p, q) < 1:
            raise ValueError(f"d, p, q must be >= 1, got shape {arr.shape}")
        flat = arr.reshape(d, p * q)
        sigma = np.linalg.svd(flat, compute_uv=False)
        if d > p * q or sigma[-1] <= INDEPENDENCE_RTOL * sigma[0]:
            raise ValueError("pencil coefficients are linearly dependent")
        object.__setattr__(self, "coefficients", arr)

    @property
    def d(self) -> int:
        return self.coefficients.shape[0]

    @property
    def p(self) -> int:
        return self.coefficients.shape[1]

    @property
    def q(self) -> int:
        return self.coefficients.shape[2]

    def __eq__(self, other):
        if not isinstance(other, Pencil):
            return NotImplemented
        return bool(np.array_equal(self.coefficients, other.coefficients))

    __hash__ = None

    def __repr__(self):
        return f"Pencil(d={self.d}, p={self.p}, q={self.q})"

    def norm_at(self, x: MatrixTuple) -> float:
        return _spectral_norm(pencil_eval(self, x))

    def norms_at(self, xs: np.ndarray) -> np.ndarray:
        """||Q(X)|| for each point of a (B, d, n, n) stack, each bit for bit norm_at."""
        return _spectral_norms(pencil_eval_batch(self, xs))


def pencil_eval_batch(pencil: Pencil, xs: np.ndarray) -> np.ndarray:
    """Q(X) for each point of a (B, d, n, n) stack: a (B, p*n, q*n) stack.

    Block (a, b) of slice i is sum_j Q_j[a, b] x_j: the fixed-order product of
    the (p q, d) coefficients and the (d, n^2) entries of each point, then one
    transpose.  These are the entries, bits included, of the sum of Krons.
    """
    return _pencil_values(pencil, point_stack(xs, pencil.d))


def _pencil_values(pencil: Pencil, xs: np.ndarray) -> np.ndarray:
    """pencil_eval_batch on a stack that point_stack has already checked."""
    count, d, n, _ = xs.shape
    p, q = pencil.p, pencil.q
    out = _seq_matmul(pencil.coefficients.reshape(d, p * q).T, xs.reshape(count, d, n * n))
    return out.reshape(count, p, q, n, n).transpose(0, 1, 3, 2, 4).reshape(count, p * n, q * n)


def pencil_eval(pencil: Pencil, x: MatrixTuple) -> np.ndarray:
    """sum_j kron(Q_j, x_j), a (p*n) x (q*n) matrix: the batch of one of pencil_eval_batch."""
    if pencil.d != x.d:
        raise ValueError(f"pencil with d={pencil.d} evaluated at a {x.d}-tuple")
    return _pencil_values(pencil, x.entries[None])[0]


def row_ball(d: int) -> Pencil:
    """||[X_1 ... X_d]|| < 1; the pencil rows are the unit coordinate rows."""
    d = _checked_size(d, "d")
    coeffs = np.zeros((d, 1, d), dtype=complex)
    for j in range(d):
        coeffs[j, 0, j] = 1.0
    return Pencil(coeffs)


def polydisk(d: int) -> Pencil:
    """max_j ||X_j|| < 1; the pencil is diagonal in the coordinates."""
    d = _checked_size(d, "d")
    coeffs = np.zeros((d, d, d), dtype=complex)
    for j in range(d):
        coeffs[j, j, j] = 1.0
    return Pencil(coeffs)


@dataclass(frozen=True)
class BallMembership:
    """Three-way membership verdict with the distance witnessing it."""

    kind: str  # "inside" | "boundary" | "outside"
    norm: float
    distance: float

    @property
    def is_inside(self) -> bool:
        return self.kind == "inside"

    @classmethod
    def from_norm(cls, s: float) -> "BallMembership":
        """The verdict for a point whose pencil norm ||Q(X)|| is s."""
        kind = "inside" if s < 1.0 - MEMBERSHIP_TOL else "outside" if s > 1.0 + MEMBERSHIP_TOL else "boundary"
        return cls(kind, s, abs(s - 1.0))  # fl(1 - s) = -fl(s - 1), so one distance serves every kind


def membership(ball: Pencil, x: MatrixTuple) -> BallMembership:
    return BallMembership.from_norm(ball.norm_at(x))


def _isometry_defect(v: np.ndarray) -> float:
    """||V*V - I||, the distance of the columns of V from an orthonormal set."""
    return _spectral_norm(v.conj().T @ v - np.eye(v.shape[1]))


def ucp_compression(x: MatrixTuple, v: np.ndarray) -> MatrixTuple:
    """The compressed tuple (V* x_j V) for an isometry V, an n x k matrix with k >= 1."""
    v = _owned_array(v, "V")
    if v.ndim != 2 or v.shape[0] != x.n or v.shape[1] < 1:
        raise ValueError(f"V must be {x.n} x k with k >= 1, got {v.shape}")
    defect = _isometry_defect(v)
    if defect > ISOMETRY_TOL:
        raise ValueError(f"V*V differs from the identity by {defect:.3e}")
    return MatrixTuple(np.array([v.conj().T @ x.entries[j] @ v for j in range(x.d)]))


def factor_two_check(ball: Pencil, samples, r: float) -> bool:
    """Whether every sample satisfies the doubled level-1 bound sup_norm < 2r.

    ``r``, finite, must bound the scalar points among the samples (|x_j| <= r);
    there is at least one sample, and each lies strictly inside the ball.
    """
    if not 0 < r < np.inf:
        raise ValueError(f"r must be positive, got {r}" if r != np.inf else "r must be finite, got inf")
    samples = list(samples)
    if not samples:
        raise ValueError("samples must hold at least one point")
    for x in samples:
        verdict = membership(ball, x)
        if not verdict.is_inside:
            raise ValueError(f"sample is not strictly inside the ball (norm {verdict.norm:.17g})")
        if x.n == 1 and sup_norm(x) > r:
            raise ValueError(f"scalar sample with |x_j| = {sup_norm(x):.17g} exceeds the claimed level-1 bound {r}")
    return all(sup_norm(x) < 2.0 * r for x in samples)


# ---------------------------------------------------------------------------
# JSON form: {"d": d, "p": p, "q": q, "coefficients": d matrices of [re, im]}


def pencil_to_dict(pencil: Pencil) -> dict:
    coeffs = complex_to_json(pencil.coefficients)
    return {"d": pencil.d, "p": pencil.p, "q": pencil.q, "coefficients": coeffs}


def pencil_from_dict(obj: dict) -> Pencil:
    try:
        d, p, q = (_checked_size(obj[key], key) for key in "dpq")
        raw = obj["coefficients"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"pencil object needs keys d, p, q, coefficients: {exc}") from exc
    return Pencil(complex_from_json(raw, (d, p, q), "coefficients"))


# the balls with a "KIND:d" shorthand; row comes first, so the one pencil of row:1 and polydisk:1 is named row:1
BALL_KINDS = {"row": row_ball, "polydisk": polydisk}
BALL_FORMS = ", ".join(f"{kind}:d" for kind in BALL_KINDS) + ", or pencil:FILE"


def ball_from_shorthand(text: str) -> Pencil:
    """Resolve "KIND:d" for a kind of BALL_KINDS, or "pencil:FILE", to a ball."""
    kind, _, rest = text.partition(":")
    if kind in BALL_KINDS:
        if not (rest.isascii() and rest.isdigit() and int(rest) >= 1):
            raise ValueError(f"ball shorthand {text!r} needs an integer d >= 1 after '{kind}:'")
        return BALL_KINDS[kind](int(rest))
    if kind == "pencil" and rest:
        if not os.path.exists(rest):
            raise ValueError(f"pencil file not found: {rest}")
        with open(rest, "r", encoding="utf-8") as handle:
            return pencil_from_dict(json.load(handle))
    raise ValueError(f"unrecognized ball shorthand {text!r} (use {BALL_FORMS})")


def ball_shorthand(ball: Pencil) -> str | None:
    """The shorthand "KIND:d" of the first kind of BALL_KINDS whose ball is this one, or None."""
    return next((f"{kind}:{ball.d}" for kind, make in BALL_KINDS.items() if make(ball.d) == ball), None)
