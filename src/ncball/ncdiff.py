"""Difference-differential calculus for nc functions via block evaluation.

Everything rests on one structural fact: evaluating an nc function at the
upper-triangular tuple  X_j = [[a_j, h_j], [0, b_j]]  yields

    f(X) = [[f(a), Df(a,b)[h]], [0, f(b)]],

so first-order difference operators are read off the (1,2) corner of an
ordinary evaluation, with no symbolic differentiation and no finite
difference noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freealg import NCFunction, _no_split
from .mattuple import MatrixTuple, _checked_size, _checked_tol, _spectral_norm


def pair_point(a, b, h) -> MatrixTuple:
    """The 2x2 upper-triangular tuple with diagonal (a, b) and corner h."""
    a, b, h = list(a), list(b), list(h)
    if not len(a) == len(b) == len(h):
        raise ValueError(f"tuple length mismatch: {len(a)}, {len(b)}, {len(h)}")
    d = len(a)
    out = np.zeros((d, 2, 2), dtype=complex)
    for j in range(d):
        out[j, 0, 0] = complex(a[j])
        out[j, 0, 1] = complex(h[j])
        out[j, 1, 1] = complex(b[j])
    return MatrixTuple(out)


def delta_first(f, x, h) -> complex:
    """The first difference Df(0, x)[h], read off a 2x2 block evaluation.

    For a realization this stays well defined for every direction h as long
    as the base point x lies strictly inside the ball, because the block
    resolvent is triangular with invertible diagonal.
    """
    x = list(x)
    return pair_derivative(f, [0.0] * len(x), x, h)


def pair_derivative(f, a, b, h) -> complex:
    """Df(a, b)[h] for scalar base points a, b."""
    return complex(f.eval(pair_point(a, b, h))[0, 1])


def gleason_split(f, x) -> tuple[complex, complex]:
    """Coefficients (g1, g2) with f(x) = f(0,0) + g1 x1 + g2 x2 on the bidisk.

    g1 freezes the second coordinate at 0, g2 sweeps it, each a block
    difference that is exact also where x1 or x2 vanishes:
        g1 = Df((0, 0), (x1, 0))[e1] = (f(x1, 0) - f(0, 0)) / x1,
        g2 = Df((x1, 0), (x1, x2))[e2] = (f(x1, x2) - f(x1, 0)) / x2.
    """
    x = list(x)
    if len(x) != 2:
        raise ValueError(f"gleason_split needs a point with 2 coordinates, got {len(x)}")
    x1, x2 = map(complex, x)
    g1 = pair_derivative(f, (0.0, 0.0), (x1, 0.0), (1.0, 0.0))
    g2 = pair_derivative(f, (x1, 0.0), (x1, x2), (0.0, 1.0))
    return g1, g2


@dataclass(frozen=True)
class TTReport:
    """Outcome of a truncation identity check at one point."""

    lhs: np.ndarray
    rhs: np.ndarray
    defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol


def tt_check(f, x: MatrixTuple, order: int, tol: float = 1e-9) -> TTReport:
    """Verify f(X) = sum_{|v|<N} c_v X^v + sum_{|w|=N} X^w g_w(X) at X.

    Works for realizations (g_w are remainder factors) and for polynomials
    (g_w are cut from the terms of the high part, of size >= N, for the heads
    that occur), each through its ``_truncation``, which gives both sides, the
    left with the bits of f.eval(x); any other f raises TypeError.  A
    realization solves its resolvent once for both sides, and a polynomial
    walks the prefixes of its words once.  The tail is added in length-lex
    order, one product at a time.  A realization walks all words of size
    <= N, which the word budget caps (N <= 18 at d = 2).
    """
    if not isinstance(f, NCFunction):
        raise _no_split(f)
    order, tol = _checked_size(order, "order"), _checked_tol(tol)
    lhs, rhs = f._truncation(x, order)
    defect = _spectral_norm(lhs - rhs)
    return TTReport(lhs=lhs, rhs=rhs, defect=defect, tol=tol)
