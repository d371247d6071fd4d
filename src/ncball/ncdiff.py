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

from .freealg import FreePolynomial, _left_quotients, homogeneous_component, walk_levels
from .mattuple import MatrixTuple, _monomials, _spectral_norm, _word_values
from .realize import Realization


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


def _added(rhs: np.ndarray, products) -> np.ndarray:
    """rhs + products[0] + products[1] + ..., one add at a time in order: one accumulate, the bits of rhs += product."""
    return np.add.accumulate([rhs, *products])[-1]


def tt_check(f, x: MatrixTuple, order: int, tol: float = 1e-9) -> TTReport:
    """Verify f(X) = sum_{|v|<N} c_v X^v + sum_{|w|=N} X^w g_w(X) at X.

    Works for realizations (g_w are remainder factors) and for polynomials
    (g_w come from exact left division of the high part, for the heads that
    occur).  The tail is added in length-lex order, one product at a time.
    A polynomial walks only the prefixes of its words; a realization walks
    all words of size <= N, which the word budget caps (N <= 18 at d = 2).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    lhs = f.eval(x)  # also rejects a point with the wrong d
    rhs = np.zeros((x.n, x.n), dtype=complex)
    if isinstance(f, FreePolynomial):
        quotients = _left_quotients(f, order)
        words = [w.letters for w in f.terms if len(w) < order] + [*quotients]
        values = _word_values(x.entries, words + [v.letters for q in quotients.values() for v in q.terms])
        for k in range(min(order, f.degree + 1)):  # a size above the degree would add +0.0: no bit changes
            rhs += homogeneous_component(f, k)._term_sum(values, (x.n, x.n))
        rhs = _added(rhs, [values[w] @ q._term_sum(values, (x.n, x.n)) for w, q in quotients.items()])
    elif isinstance(f, Realization):
        levels = walk_levels(x.d, order, _monomials(x.entries), (None, f.row_step))  # budgeted before any term
        for term in itertools.islice(f._homogeneous_terms(x), order):
            rhs += term
        res = f.resolvent_term(x)
        for k, (xws, rows) in levels:
            if k == order:  # g_w = (row_w x I_n) R for every word of the chunk
                rhs = _added(rhs, xws @ f.remainder_of_row(rows[:, 0], res).reshape(xws.shape))
    else:
        raise TypeError(f"tt_check supports polynomials and realizations, got {type(f).__name__}")
    defect = _spectral_norm(lhs - rhs)
    return TTReport(lhs=lhs, rhs=rhs, defect=defect, tol=tol)
