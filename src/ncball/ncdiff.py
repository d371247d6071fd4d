"""Difference-differential calculus for nc functions via block evaluation.

Everything rests on one structural fact: evaluating an nc function at the
upper-triangular tuple  X_j = [[a_j, h_j], [0, b_j]]  yields

    f(X) = [[f(a), Df(a,b)[h]], [0, f(b)]],

so first-order difference operators are read off the (1,2) corner of an
ordinary evaluation, with no symbolic differentiation and no finite
difference noise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .freealg import (
    BudgetExceededError,
    FreePolynomial,
    homogeneous_component,
    left_divide,
    walk_levels,
)
from .mattuple import MatrixTuple, _monomials, _spectral_norm
from .realize import Realization

TT_WORD_BUDGET = 10**5


def scalar_eval(f, point) -> complex:
    """Evaluate at a scalar (level-1) point."""
    return complex(f.eval(MatrixTuple.scalars(point))[0, 0])


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


def d1_difference_quotient(f, x: complex, y: complex) -> complex:
    """(f(x) - f(y))/(x - y) for one-variable f, exact at every separation.

    The quotient is the (1,2) entry of f([[x, 1], [0, y]]), which equals it
    identically, with no cancellation as y -> x, and is the derivative at y = x.
    """
    return pair_derivative(f, (x,), (y,), (1.0,))


def gleason_split(f, x) -> tuple[complex, complex]:
    """Coefficients (g1, g2) with f(x) = f(0,0) + g1 x1 + g2 x2 on the bidisk.

    g1 freezes the second coordinate at 0, g2 sweeps it, each a block
    difference that is exact also where x1 or x2 vanishes:
        g1 = Df((0, 0), (x1, 0))[e1] = (f(x1, 0) - f(0, 0)) / x1,
        g2 = Df((x1, 0), (x1, x2))[e2] = (f(x1, x2) - f(x1, 0)) / x2.
    """
    x1, x2 = complex(x[0]), complex(x[1])
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
    (g_w come from exact left division of the high part).  The tail is added
    in length-lex order, a chunk of words of size N at a time.  Enumerates d^N
    words, budgeted at 1e5.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    d = x.d
    if d**order > TT_WORD_BUDGET:
        raise BudgetExceededError(f"{d}^{order} words exceed the budget {TT_WORD_BUDGET}")
    lhs = f.eval(x)  # also rejects a point with the wrong d
    columns = [_monomials(x.entries)]
    if isinstance(f, FreePolynomial):
        low = (homogeneous_component(f, k).eval(x) for k in range(order))
        high = FreePolynomial(d, {w: c for w, c in f.terms.items() if len(w) >= order})
        quotients = iter(left_divide(high, order).values())
    elif isinstance(f, Realization):
        low = itertools.islice(f._homogeneous_terms(x), order)
        res = f.resolvent_term(x)
        columns.append((None, f.row_step))
    else:
        raise TypeError(f"tt_check supports polynomials and realizations, got {type(f).__name__}")
    rhs = np.zeros((x.n, x.n), dtype=complex)
    for term in low:
        rhs += term
    for k, (xws, *rows) in walk_levels(d, order, *columns):
        if k < order:
            continue
        if rows:  # g_w = (row_w x I_n) R for every word of the chunk
            keep, tails = slice(None), f.remainder_of_row(rows[0][:, 0], res).reshape(xws.shape)
        else:  # the nonzero quotients f_w among the chunk's words
            chunk = list(itertools.islice(quotients, len(xws)))
            keep = [i for i, q in enumerate(chunk) if q]
            tails = np.array([chunk[i].eval(x) for i in keep]).reshape(-1, x.n, x.n)
        for product in xws[keep] @ tails:
            rhs += product
    defect = _spectral_norm(lhs - rhs)
    return TTReport(lhs=lhs, rhs=rhs, defect=defect, tol=tol)
