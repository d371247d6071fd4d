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
    walk_words,
)
from .mattuple import MatrixTuple, _spectral_norm
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
    value = f.eval(pair_point([0.0] * len(x), x, h))
    return complex(value[0, 1])


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
    (g_w come from exact left division of the high part).  Enumerates d^N
    words, budgeted at 1e5.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    d = x.d
    if d**order > TT_WORD_BUDGET:
        raise BudgetExceededError(f"{d}^{order} words exceed the budget {TT_WORD_BUDGET}")
    lhs = f.eval(x)  # also rejects a point with the wrong d
    eye = np.eye(x.n, dtype=complex)
    rhs = np.zeros((x.n, x.n), dtype=complex)
    if isinstance(f, FreePolynomial):
        for k in range(order):
            rhs += homogeneous_component(f, k).eval(x)
        high = FreePolynomial(d, {w: c for w, c in f.terms.items() if len(w) >= order})
        if high:
            quotients = left_divide(high, order)
            for word, xw in walk_words(d, order, eye, x.times_letter):
                if len(word) == order and quotients[word]:
                    rhs += xw @ quotients[word].eval(x)
    elif isinstance(f, Realization):
        for term in itertools.islice(f._homogeneous_terms(x), order):
            rhs += term
        res = f.resolvent_term(x)

        def step(pair, j):
            xw, row = pair
            return x.times_letter(xw, j), f.row_step(row, j)

        for word, (xw, row) in walk_words(d, order, (eye, None), step):
            if len(word) == order:
                rhs += xw @ f.remainder_of_row(row, res)
    else:
        raise TypeError(f"tt_check supports polynomials and realizations, got {type(f).__name__}")
    defect = _spectral_norm(lhs - rhs)
    return TTReport(lhs=lhs, rhs=rhs, defect=defect, tol=tol)
