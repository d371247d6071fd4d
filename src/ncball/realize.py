"""Transfer-function realizations of bounded nc functions on pencil balls.

A realization holds system data (A, B, C, D) over a pencil Q and an internal
multiplicity m.  Its value at a level-n point X is

    f(X) = A I_n + (B x I_n) L(X) [ 1 - (D x I_n) L(X) ]^{-1} (C x I_n),

where L(X) = I_m x Q(X) and "x" is the Kronecker product.  With Q of size
p x q the data shapes are B: 1 x (m p), C: (m q) x 1, D: (m q) x (m p).
No identity Kronecker product is formed while evaluating: the letters I_m x Q_j
are built once per realization, C x I_n and the identities once per level n,
and the products by B x I_n, D x I_n and I_m x Q(X) are block operations.
In isometry mode the system matrix V = [[A, B], [C, D]] satisfies V*V = 1 and
f is then a complete contraction on the ball; in contraction mode only
||D|| <= 1 is required and f is merely analytic where the resolvent exists.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .freealg import BudgetExceededError, FreePolynomial, WORD_BUDGET, Word, walk_levels, words_of_size
from .mattuple import (
    MatrixTuple,
    _owned_array,
    _spectral_norm,
    complex_from_json,
    complex_to_json,
    json_size,
    point_stack,
    seq_matmul,
    seq_matmul_batch,
    seq_solve_batch,
)
from .opball import Pencil, pencil_eval_batch, pencil_from_dict, pencil_to_dict, polydisk

CONTRACTION_TOL = 1e-10
ISOMETRY_TOL = 1e-10
RESOLVENT_COND_LIMIT = 1e12


class IllConditionedError(RuntimeError):
    """The resolvent operand is numerically singular; carries ``cond``."""

    def __init__(self, cond: float):
        super().__init__(f"resolvent condition estimate {cond:.3e} exceeds {RESOLVENT_COND_LIMIT:.0e}")
        self.cond = cond


class _LevelOperands(NamedTuple):
    """The read-only operands of one realization at one level n."""

    eye: np.ndarray  # I_n
    c_col: np.ndarray  # C x I_n, of shape (m q n) x n
    eye_res: np.ndarray  # I_{m q n}


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _kron_eye_matmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(a x I_n) b for each matrix b of a stack, bit for bit seq_matmul(np.kron(a, I_n), b).

    b has shape (..., inner * n, cols), with any number of leading batch axes.
    Row (i, r) of the product only meets rows (k, r) of b, so the rank-1 terms
    are accumulated block by block in the index order k of a: the same
    products, summed in the same order, as the fixed-order kernel, without the
    zero terms of the identity.
    """
    rows, inner = a.shape
    lead = b.shape[:-2]
    blocks = b.reshape(*lead, inner, n, b.shape[-1])
    # coeffs[k] is column k of a with the rank of a block of b: broadcasting
    # arrays of unequal rank can send numpy's complex multiply down a loop
    # without fused multiply-add, and the bits would then depend on the batch
    coeffs = a.T[(slice(None), *(None,) * len(lead), slice(None), None, None)]
    out = np.zeros((*lead, rows, n, b.shape[-1]), dtype=complex)
    for k in range(inner):
        out += coeffs[k] * blocks[..., k : k + 1, :, :]
    return out.reshape(*lead, rows * n, b.shape[-1])


def _failure_mask(count: int, errors: dict[int, Exception]) -> np.ndarray:
    failed = np.zeros(count, dtype=bool)
    failed[list(errors)] = True
    return failed


def _only(values: np.ndarray, errors: dict[int, Exception]) -> np.ndarray:
    """The value of a batch of one, or the error that sample met on its own."""
    if errors:
        raise errors[0]
    return values[0]


@dataclass(frozen=True, eq=False, slots=True)
class Realization:
    """System data (A, B, C, D) over a pencil, evaluable at matrix tuples."""

    pencil: Pencil
    m: int
    A: complex
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    mode: str = "contraction"
    # L_j = I_m x Q_j, built once; the level-n operands, built on first use
    _letters: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _levels: dict[int, _LevelOperands] = field(init=False, repr=False)

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
        eye_m = np.eye(m)
        letters = tuple(_read_only(np.kron(eye_m, q_j)) for q_j in pencil.coefficients)
        owned = {"m": int(m), "A": a, "B": b, "C": c, "D": d, "_letters": letters, "_levels": {}}
        for name, value in owned.items():
            object.__setattr__(self, name, value)
        if self.mode == "isometry":
            v = self.system_matrix()
            defect = _spectral_norm(v.conj().T @ v - np.eye(1 + mp))
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

    def _level(self, n: int) -> _LevelOperands:
        """The level-n operands, built on first use and kept."""
        ops = self._levels.get(n)
        if ops is None:
            ops = _LevelOperands(
                eye=_read_only(np.eye(n, dtype=complex)),
                c_col=_read_only(np.kron(self.C.reshape(-1, 1), np.eye(n))),
                eye_res=_read_only(np.eye(self.m * self.pencil.q * n, dtype=complex)),
            )
            self._levels[n] = ops
        return ops

    def _lam(self, xs: np.ndarray) -> np.ndarray:
        """L(X) = I_m x Q(X) for each point of a stack, placed as m diagonal blocks."""
        qx = pencil_eval_batch(self.pencil, xs)
        if self.m == 1:
            return qx
        count, p, q = qx.shape
        lam = np.zeros((count, self.m * p, self.m * q), dtype=complex)
        for i in range(self.m):
            lam[:, i * p : (i + 1) * p, i * q : (i + 1) * q] = qx
        return lam

    def _resolvent(self, xs: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        """Solve [1 - (D x I_n) L(X)] R = C x I_n per sample, with a conditioning guard.

        Returns the stack of R and, by sample index, the error each failed
        sample would raise alone: IllConditionedError where the exact
        condition number trips the guard (that sample is not solved), or
        LinAlgError at a zero pivot.  A failed sample's R is NaN.
        """
        n = xs.shape[-1]
        ops = self._level(n)
        t = ops.eye_res - _kron_eye_matmul(self.D, lam, n)
        cond = np.linalg.cond(t)
        guarded = np.isfinite(cond) & (cond <= RESOLVENT_COND_LIMIT)
        errors: dict[int, Exception] = {int(i): IllConditionedError(float(cond[i])) for i in np.flatnonzero(~guarded)}
        res = np.full((len(t), *ops.c_col.shape), np.nan, dtype=complex)
        solved = np.flatnonzero(guarded)
        if len(solved):
            sol, singular = seq_solve_batch(t[solved], np.repeat(ops.c_col[None], len(solved), axis=0))
            res[solved] = sol
            for i in solved[singular]:
                errors[int(i)] = np.linalg.LinAlgError("matrix is singular")
                res[i] = np.nan
        return res, errors

    def _values(self, xs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        """f at each point of a stack, with the errors of the failed samples (NaN values)."""
        lam = self._lam(xs)
        res, errors = self._resolvent(xs, lam)
        n = xs.shape[-1]
        head = _kron_eye_matmul(self.B.reshape(1, -1), lam, n)
        return self.A * self._level(n).eye + seq_matmul_batch(head, res), errors

    def eval_batch(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """f at each point of a (B, d, n, n) stack: (values, failed).

        values[i] is bit for bit eval at point i.  failed is a boolean mask of
        the samples whose eval would raise (a tripped resolvent guard or a zero
        pivot); their values are NaN and the other samples are unaffected.
        """
        values, errors = self._values(point_stack(xs, self.d))
        return values, _failure_mask(len(values), errors)

    def eval(self, x: MatrixTuple) -> np.ndarray:
        if x.d != self.d:
            raise ValueError(f"realization over d={self.d} evaluated at a {x.d}-tuple")
        return _only(*self._values(x.entries[None]))

    def resolvent_batch(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """resolvent_term at each point of a (B, d, n, n) stack: (values, failed), as eval_batch."""
        xs = point_stack(xs, self.d)
        res, errors = self._resolvent(xs, self._lam(xs))
        return res, _failure_mask(len(res), errors)

    def resolvent_term(self, x: MatrixTuple) -> np.ndarray:
        """[1 - (D x I_n) L(X)]^{-1} (C x I_n), of shape (m q n) x n.

        This right factor need not be bounded on the ball even when f is.
        """
        if x.d != self.d:
            raise ValueError(f"realization over d={self.d} evaluated at a {x.d}-tuple")
        xs = x.entries[None]
        return _only(*self._resolvent(xs, self._lam(xs)))

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
        """B L_{w_1} D L_{w_2} D ... D L_{w_k} for a nonempty word, a 1 x (m q) row."""
        return functools.reduce(self.row_step, word.letters, None)[0]

    def remainder_of_row(self, rows: np.ndarray, res: np.ndarray) -> np.ndarray:
        """The column of g_w(X) = (row_w x I_n) R from prefix rows (K, m q) and R = resolvent_term(X).

        R may be a stack (B, m q n, n) from resolvent_batch; so is the result.
        """
        return _kron_eye_matmul(rows, res, res.shape[-1])

    def power_series_coefficient(self, word: Word) -> complex:
        """c_w with f = sum_w c_w Z^w; c_empty = A."""
        if word.d != self.d:
            raise ValueError(f"word over alphabet 1..{word.d} for a realization with d={self.d}")
        return complex((self._prefix_row(word) @ self.C)[0]) if len(word) else self.A

    def remainder_factor(self, word: Word) -> "RemainderFactor":
        if word.d != self.d:
            raise ValueError(f"word over alphabet 1..{word.d} for a realization with d={self.d}")
        if len(word) == 0:
            raise ValueError("remainder factors are indexed by nonempty words")
        return RemainderFactor(self, word)

    def _homogeneous_terms(self, x: MatrixTuple) -> Iterator[np.ndarray]:
        """f_0(x), f_1(x), ...: one power iteration, one product per term.

        f_k(x) = cur_k (C x I_n) with cur_1 = (B x I_n) L and
        cur_(k+1) = cur_k (D x I_n) L; L is formed only if f_1 is asked for.
        """
        ops = self._level(x.n)
        yield self.A * ops.eye
        lam = self._lam(x.entries[None])[0]
        cur = _kron_eye_matmul(self.B.reshape(1, -1), lam, x.n)
        hop = _kron_eye_matmul(self.D, lam, x.n)
        while True:
            yield seq_matmul(cur, ops.c_col)
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
class RemainderFactor:
    """The right factor g_w in  f = sum_{|v|<N} c_v Z^v + sum_{|w|=N} Z^w g_w."""

    base: Realization
    word: Word

    @property
    def d(self) -> int:
        return self.base.d

    def eval(self, x: MatrixTuple) -> np.ndarray:
        return self.base.remainder_of_row(self.base._prefix_row(self.word), self.base.resolvent_term(x))

    def eval_batch(self, xs) -> tuple[np.ndarray, np.ndarray]:
        res, failed = self.base.resolvent_batch(xs)
        return self.base.remainder_of_row(self.base._prefix_row(self.word), res), failed


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
    """sum_{|w|<n} c_w Z^w as an explicit polynomial (word-budgeted), in length-lex order."""
    total = sum(f.d**k for k in range(n))
    if total > WORD_BUDGET:
        raise BudgetExceededError(f"{total} words with size < {n} exceed the budget {WORD_BUDGET}")
    levels: list[list[complex]] = [[] for _ in range(n)]
    for k, (rows,) in walk_levels(f.d, n - 1, (None, f.row_step)):
        levels[k] += [f.A] if rows is None else (rows @ f.C)[:, 0].tolist()
    words = (word for k in range(n) for word in words_of_size(f.d, k))
    return FreePolynomial(f.d, {w: c for w, c in zip(words, itertools.chain(*levels)) if c != 0})


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
