"""Transfer-function realizations of bounded nc functions on pencil balls.

A realization holds system data (A, B, C, D) over a pencil Q and an internal
multiplicity m.  Its value at a level-n point X is

    f(X) = A I_n + (B x I_n) L(X) [ 1 - (D x I_n) L(X) ]^{-1} (C x I_n),

where L(X) = I_m x Q(X) and "x" is the Kronecker product.  With Q of size
p x q the data shapes are B: 1 x (m p), C: (m q) x 1, D: (m q) x (m p).
No identity Kronecker product is formed while evaluating: the letters I_m x Q_j
and the block column [B; D] are built once per realization,
L(X) = sum_j L_j x X_j is the pencil value of the letters, and one block
product by [B; D] x I_n gives both (B x I_n) L(X) and (D x I_n) L(X).
In isometry mode the system matrix V = [[A, B], [C, D]] satisfies V*V = 1 and
f is then a complete contraction on the ball; in contraction mode only
||D|| <= 1 is required and f is merely analytic where the resolvent exists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .freealg import FreePolynomial, NCFunction, Word, walk_levels
from .mattuple import (
    MatrixTuple,
    _owned_array,
    _seq_matmul,
    _spectral_norm,
    complex_from_json,
    complex_to_json,
    json_size,
    seq_matmul,
    seq_solve_batch,
)
from .opball import ISOMETRY_TOL, Pencil, _isometry_defect, pencil_eval_batch, pencil_from_dict, pencil_to_dict, polydisk

CONTRACTION_TOL = 1e-10
RESOLVENT_COND_LIMIT = 1e12
# the bound cond(T) <= (1 + delta)/(1 - delta), delta = ||D|| ||Q(X)||, is at
# most 1e9 exactly when delta <= this: three orders of magnitude below the limit
_CERTIFIED_DELTA = (1e9 - 1.0) / (1e9 + 1.0)


class IllConditionedError(RuntimeError):
    """The resolvent operand is numerically singular; carries its condition number ``cond``."""

    def __init__(self, cond: float):
        super().__init__(
            f"resolvent operand 1 - (D x I_n) L(X) has 2-norm condition number {cond:.3e}, above {RESOLVENT_COND_LIMIT:.0e}"
        )
        self.cond = cond


def _kron_eye_matmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(a x I_n) b for each matrix b of a stack, bit for bit seq_matmul(np.kron(a, I_n), b).

    b has shape (..., inner * n, cols), with any number of leading batch axes.
    Row (i, r) of the product only meets rows (k, r) of b, so it is the
    fixed-order product of a and b seen as (..., inner, n * cols): the same
    products, summed in the same order, without the zero terms of the identity.
    """
    lead, cols = b.shape[:-2], b.shape[-1]
    out = _seq_matmul(a, b.reshape(*lead, a.shape[1], n * cols))
    return out.reshape(*lead, a.shape[0] * n, cols)


def _kron_eye_col(c: np.ndarray, n: int) -> np.ndarray:
    """c x I_n for a vector c, of shape (len(c) n) x n: the products c[i] I_n[r, s] that np.kron forms."""
    return (c[:, None, None] * np.eye(n)).reshape(-1, n)


@dataclass(frozen=True, eq=False, slots=True)
class Realization(NCFunction):
    """System data (A, B, C, D) over a pencil, evaluable at matrix tuples."""

    pencil: Pencil
    m: int
    A: complex
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    mode: str = "contraction"
    # the pencil of the letters L_j = I_m x Q_j and V's right block column [B; D], built once
    _letter_pencil: Pencil = field(init=False, repr=False)
    _letters: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _bd: np.ndarray = field(init=False, repr=False)
    _d_norm: float = field(init=False, repr=False)  # ||D||, for the resolvent certificate

    def __post_init__(self):
        m, pencil = self.m, self.pencil
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if self.mode not in ("contraction", "isometry"):
            raise ValueError(f"mode must be 'contraction' or 'isometry', got {self.mode!r}")
        a = complex(_owned_array(self.A, "realization A"))
        b = _owned_array(self.B, "realization B").reshape(-1)
        c = _owned_array(self.C, "realization C").reshape(-1)
        d = _owned_array(self.D, "realization D")
        mp, mq = m * pencil.p, m * pencil.q
        if b.shape[0] != mp:
            raise ValueError(f"B must have length m*p = {mp}, got {b.shape[0]}")
        if c.shape[0] != mq:
            raise ValueError(f"C must have length m*q = {mq}, got {c.shape[0]}")
        if d.shape != (mq, mp):
            raise ValueError(f"D must be (m*q) x (m*p) = {mq} x {mp}, got {d.shape}")
        d_norm = _spectral_norm(d)
        if d_norm > 1.0 + CONTRACTION_TOL:
            raise ValueError(f"||D|| = {d_norm:.17g} exceeds 1; the series would not converge on the ball")
        letters = Pencil(np.array([np.kron(np.eye(m), q_j) for q_j in pencil.coefficients]))
        bd = np.concatenate((b[None], d))
        bd.setflags(write=False)
        owned = {"m": int(m), "A": a, "B": b, "C": c, "D": d, "_letters": tuple(letters.coefficients), "_bd": bd}
        owned |= {"_letter_pencil": letters, "_d_norm": d_norm}
        for name, value in owned.items():
            object.__setattr__(self, name, value)
        if self.mode == "isometry":
            defect = _isometry_defect(self.system_matrix())
            if defect > ISOMETRY_TOL:
                raise ValueError(f"V*V differs from the identity by {defect:.3e}; not an isometry")

    @property
    def d(self) -> int:
        return self.pencil.d

    def system_matrix(self) -> np.ndarray:
        """V = [[A, B], [C, D]], of shape (1 + m*q) x (1 + m*p)."""
        mp, mq = self.m * self.pencil.p, self.m * self.pencil.q
        v = np.zeros((1 + mq, 1 + mp), dtype=complex)
        v[0, 0] = self.A
        v[0, 1:] = self.B
        v[1:, 0] = self.C
        v[1:, 1:] = self.D
        return v

    def letter_matrix(self, j: int) -> np.ndarray:
        """L_j = I_m x Q_j, the pencil letter seen by the system data (read-only)."""
        return self._letters[j - 1]

    def _resolvent(self, xs: np.ndarray, pencil_norms=None) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
        """(B x I_n) L(X), and R solving T R = C x I_n per sample, T = 1 - (D x I_n) L(X), with a conditioning guard.

        One product by [B; D] x I_n gives both: its rows are, bit for bit, those
        of the two products apart.  Returns the head, the stack of R and, by
        sample index, the error each failed sample would raise alone:
        IllConditionedError where the exact 2-norm condition number of T trips
        the guard (that sample is not solved), or LinAlgError at a zero pivot.
        A failed sample's R is NaN.

        Since ||L(X)|| = ||Q(X)||, T is the identity less an operator of norm
        at most delta = ||D|| ||Q(X)||, so cond(T) <= (1 + delta)/(1 - delta)
        where delta < 1.  Given the exact pencil_norms, a sample with this
        bound at most 1e9 cannot trip the guard and is not measured; every
        other sample is.  Without norms no sample is certified.
        """
        n = xs.shape[-1]
        bd_lam = _kron_eye_matmul(self._bd, pencil_eval_batch(self._letter_pencil, xs), n)
        t = np.eye(bd_lam.shape[-1], dtype=complex) - bd_lam[:, n:]
        certified = np.zeros(len(t), dtype=bool)
        if pencil_norms is not None:
            certified = self._d_norm * pencil_norms <= _CERTIFIED_DELTA
        # a certified sample cannot trip the guard: 1 stands in for its condition number
        cond = np.ones(len(t))
        if not certified.all():
            cond[~certified] = np.linalg.cond(t[~certified])
        guarded = np.isfinite(cond) & (cond <= RESOLVENT_COND_LIMIT)
        errors: dict[int, Exception] = {int(i): IllConditionedError(float(cond[i])) for i in np.flatnonzero(~guarded)}
        c_col = _kron_eye_col(self.C, n)
        res = np.full((len(t), *c_col.shape), np.nan, dtype=complex)
        solved = np.flatnonzero(guarded)
        if len(solved):
            sol, singular = seq_solve_batch(t[solved], np.broadcast_to(c_col, (len(solved), *c_col.shape)))
            res[solved] = sol
            for i in solved[singular]:
                errors[int(i)] = np.linalg.LinAlgError("matrix is singular")
                res[i] = np.nan
        return bd_lam[:, :n], res, errors

    def _values(self, xs: np.ndarray, pencil_norms=None) -> tuple[np.ndarray, dict[int, Exception]]:
        """f at each point of a stack, with the errors of the failed samples (NaN values)."""
        head, res, errors = self._resolvent(xs, pencil_norms)
        return self.A * np.eye(xs.shape[-1], dtype=complex) + _seq_matmul(head, res), errors

    def resolvent_term(self, x: MatrixTuple) -> np.ndarray:
        """[1 - (D x I_n) L(X)]^{-1} (C x I_n), of shape (m q n) x n.

        This right factor need not be bounded on the ball even when f is.
        """
        return self._at(x, lambda xs: self._resolvent(xs)[1:])

    def row_step(self, rows: np.ndarray | None, j: int) -> np.ndarray:
        """The prefix rows of the words w j from those of a stack of words w.

        Each row is (B if w is empty else row_w D) L_j, the rows have shape
        (P, 1, m q) and the empty word's rows are None.  Prefix rows give the
        coefficients, c_w = row_w C, and the remainder factors, g_w(X) =
        (row_w x I_n) R(X).
        """
        head = self.B.reshape(1, 1, -1) if rows is None else rows @ self.D
        return head @ self._letters[j - 1]

    def _prefix_row(self, word: Word) -> np.ndarray:
        """B L_{w_1} D L_{w_2} D ... D L_{w_k} for a nonempty word, a 1 x (m q) row: the last level of its walk."""
        *_, (_, (rows,)) = walk_levels(self.d, len(word), (None, self.row_step), words=[word.letters])
        return rows[0]

    def remainder_of_row(self, rows: np.ndarray, res: np.ndarray) -> np.ndarray:
        """The column of g_w(X) = (row_w x I_n) R from prefix rows (K, m q) and R = resolvent_term(X).

        R may be a stack (B, m q n, n) of resolvents; so is the result.
        """
        return _kron_eye_matmul(rows, res, res.shape[-1])

    def power_series_coefficient(self, word: Word) -> complex:
        """c_w with f = sum_w c_w Z^w; c_empty = A."""
        if word.d != self.d:
            raise ValueError(f"word over alphabet 1..{word.d} for a realization with d={self.d}")
        return complex((self._prefix_row(word) @ self.C)[0]) if len(word) else self.A

    def remainder_factor(self, word: Word) -> "RemainderFactor":
        return RemainderFactor(self, word)

    def _homogeneous_terms(self, x: MatrixTuple) -> Iterator[np.ndarray]:
        """f_0(x), f_1(x), ...: one power iteration, one product per term.

        f_k(x) = cur_k (C x I_n) with cur_1 = (B x I_n) L and
        cur_(k+1) = cur_k (D x I_n) L, both from one product by [B; D] x I_n;
        L is formed only if f_1 is asked for.  A point with the wrong d is
        rejected before f_0.
        """
        self._check_d(x)
        n = x.n
        yield self.A * np.eye(n, dtype=complex)
        bd_lam = _kron_eye_matmul(self._bd, pencil_eval_batch(self._letter_pencil, x.entries[None])[0], n)
        cur, hop, c_col = bd_lam[:n], bd_lam[n:], _kron_eye_col(self.C, n)
        while True:
            yield seq_matmul(cur, c_col)
            cur = seq_matmul(cur, hop)

    def homogeneous_value(self, x: MatrixTuple, k: int) -> np.ndarray:
        """The degree-k term sum_{|w|=k} c_w x^w, without enumerating words."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return next(itertools.islice(self._homogeneous_terms(x), k, None))

    def cesaro_value(self, x: MatrixTuple, n_terms: int) -> np.ndarray:
        """sum_{k<N} (1 - k/N) f_k(x), evaluated termwise in O(N) products.

        The error is exactly  f - sigma_N f = Ef/N - (1/N) sum_{k>N} (k - N) f_k,
        where Ef = sum_k k f_k is the Euler (radial) derivative.  The defect is
        therefore of order 1/N, not geometric, even where the plain partial sums
        converge geometrically.  Where |f_k(x)| <= r^k with r < 1, the rest
        N (f - sigma_N f) - Ef is at most r^(N+1)/(1 - r)^2 in size.
        """
        if n_terms < 1:
            raise ValueError(f"n_terms must be >= 1, got {n_terms}")
        terms = self._homogeneous_terms(x)
        out = next(terms)
        for k, term in zip(range(1, n_terms), terms):
            out = out + (1.0 - k / n_terms) * term
        return out

    def __repr__(self):
        return f"Realization(d={self.d}, p={self.pencil.p}, q={self.pencil.q}, m={self.m}, mode={self.mode!r})"


@dataclass(frozen=True)
class _RemainderRows(NCFunction):
    """The column of g_w(X) = (row_w x I_n) R(X) over prefix rows ``rows`` (K, m q), fixed when built."""

    base: Realization
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def pencil(self) -> Pencil:
        return self.base.pencil

    def _values(self, xs: np.ndarray, pencil_norms=None) -> tuple[np.ndarray, dict[int, Exception]]:
        _, res, errors = self.base._resolvent(xs, pencil_norms)
        return self.base.remainder_of_row(self.rows, res), errors


@dataclass(frozen=True)
class RemainderFactor(_RemainderRows):
    """The right factor g_w in  f = sum_{|v|<N} c_v Z^v + sum_{|w|=N} Z^w g_w."""

    word: Word

    def __post_init__(self):
        if self.word.d != self.d:
            raise ValueError(f"word over alphabet 1..{self.word.d} for a realization with d={self.d}")
        if len(self.word) == 0:
            raise ValueError("remainder factors are indexed by nonempty words")
        object.__setattr__(self, "rows", self.base._prefix_row(self.word))


def bidisk_witness() -> Realization:
    """The builtin bidisk realization (CLI name "ex52").

    Its scalar values are (2 x1 x2 - x1 - x2)/(x1 + x2 - 2), a complete
    contraction on the bidisk, yet the resolvent term blows up as the point
    approaches the corner (1, 1).  The system matrix is unitary.
    """
    s = 1.0 / math.sqrt(2.0)
    return Realization(
        polydisk(2).pencil,
        1,
        0.0,
        [s, s],
        [s, s],
        [[0.5, -0.5], [-0.5, 0.5]],
        mode="isometry",
    )


def bidisk_witness_closed_form(x1: complex, x2: complex) -> complex:
    """Scalar closed form of the builtin bidisk realization."""
    return (2.0 * x1 * x2 - x1 - x2) / (x1 + x2 - 2.0)


def taylor_polynomial(f: Realization, n: int) -> FreePolynomial:
    """sum_{|w|<n} c_w Z^w as an explicit polynomial in length-lex order; its dense walk is word-budgeted."""
    levels: list[list[complex]] = [[] for _ in range(n)]
    for k, (rows,) in walk_levels(f.d, n - 1, (None, f.row_step)):
        levels[k] += [f.A] if rows is None else (rows @ f.C)[:, 0].tolist()
    words = (w for k in range(n) for w in itertools.product(range(1, f.d + 1), repeat=k))
    return FreePolynomial._trusted(f.d, dict(zip(words, itertools.chain(*levels))))


# ---------------------------------------------------------------------------
# JSON form


def realization_to_dict(f: Realization) -> dict:
    return {
        "pencil": pencil_to_dict(f.pencil),
        "m": f.m,
        "A": complex_to_json(f.A),
        "B": complex_to_json(f.B),
        "C": complex_to_json(f.C),
        "D": complex_to_json(f.D),
        "mode": f.mode,
    }


def realization_from_dict(obj: dict) -> Realization:
    try:
        pencil = pencil_from_dict(obj["pencil"])
        m = json_size(obj, "m")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        mp, mq = m * pencil.p, m * pencil.q
        shapes = {"A": (), "B": (mp,), "C": (mq,), "D": (mq, mp)}
        a, b, c, d = (complex_from_json(obj[key], shapes[key], key) for key in "ABCD")
        mode = str(obj.get("mode", "contraction"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed realization object: {exc}") from exc
    return Realization(pencil, m, a, b, c, d, mode)


BUILTIN_REALIZATIONS = {"ex52": bidisk_witness}
