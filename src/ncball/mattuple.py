"""Tuples of square complex matrices, the points nc functions are evaluated at.

A level-n point of the d-variable matrix universe is a d-tuple of n x n
complex matrices.  The sup norm, direct sums, similarities, ampliations and
word evaluation implemented here are the structural operations
that graded nc functions are required to respect.
"""

from __future__ import annotations

import functools

import numpy as np

from .freealg import BudgetExceededError, Word, WORD_BUDGET, walk_words

SIMILARITY_COND_LIMIT = 1e12


class MatrixTuple:
    """Immutable d-tuple of n x n complex matrices, stored as a (d, n, n) array."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=complex)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected shape (d, n, n), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"d and n must be >= 1, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("point entries must be finite (found NaN or inf)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixTuple is immutable")

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def zeros(cls, d: int, n: int) -> "MatrixTuple":
        return cls(np.zeros((d, n, n), dtype=complex))

    @classmethod
    def scalars(cls, values) -> "MatrixTuple":
        """A level-1 point from a tuple of complex numbers."""
        vals = [complex(v) for v in values]
        return cls(np.array(vals, dtype=complex).reshape(len(vals), 1, 1))

    def scale(self, factor: complex) -> "MatrixTuple":
        return MatrixTuple(self.entries * complex(factor))

    def times_letter(self, prev: np.ndarray, j: int) -> np.ndarray:
        """prev x_j by the fixed-order kernel: the step from x^w to x^(w j)."""
        return seq_matmul(prev, self.entries[j - 1])

    def __eq__(self, other):
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(np.array_equal(self.entries, other.entries))

    __hash__ = None

    def __repr__(self):
        return f"MatrixTuple(d={self.d}, n={self.n})"


def _spectral_norm(a: np.ndarray) -> float:
    """The largest singular value of a matrix, bit for bit np.linalg.norm(a, 2)."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


def sup_norm(x: MatrixTuple) -> float:
    """max_j of the largest singular value of the j-th entry."""
    return max(_spectral_norm(entry) for entry in x.entries)


def seq_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product accumulated rank-1 term by term in index order.

    BLAS regroups the inner sums by operand size, so evaluating at a direct
    sum can differ from the assembled blocks by an ulp.  Fixed-order
    accumulation keeps the zero cross-blocks inert and makes evaluation
    respect direct sums exactly, which the structural identities (and their
    tests) rely on.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def seq_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by partial-pivoting elimination in fixed index order.

    Same constraint as seq_matmul: LAPACK regroups its updates by problem
    size, so a solve at a direct sum need not reproduce the assembled block
    solves to the last bit.  Unblocked rank-1 elimination and a column sweep
    substitution keep the cross-block zeros inert.  Meant for the small
    systems this library produces, not as a general solver.
    """
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    squeeze = b.ndim == 1
    if squeeze:
        b = b.reshape(-1, 1)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n) or b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"cannot solve shapes {a.shape} and {b.shape}")
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0:
            raise np.linalg.LinAlgError("matrix is singular")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        mult = a[k + 1 :, k : k + 1] / a[k, k]
        a[k + 1 :, k + 1 :] -= mult * a[k : k + 1, k + 1 :]
        b[k + 1 :, :] -= mult * b[k : k + 1, :]
    for i in range(n - 1, -1, -1):
        b[i, :] /= a[i, i]
        b[:i, :] -= a[:i, i : i + 1] * b[i : i + 1, :]
    return b[:, 0] if squeeze else b


def eval_word(x: MatrixTuple, word: Word) -> np.ndarray:
    """The product x_{w_1} ... x_{w_k}; the empty word gives the identity."""
    if word.d != x.d:
        raise ValueError(f"word over alphabet 1..{word.d} evaluated at a {x.d}-tuple")
    return functools.reduce(x.times_letter, word.letters, np.eye(x.n, dtype=complex))


def direct_sum(x: MatrixTuple, y: MatrixTuple) -> MatrixTuple:
    if x.d != y.d:
        raise ValueError(f"dimension mismatch: d={x.d} vs d={y.d}")
    n = x.n + y.n
    out = np.zeros((x.d, n, n), dtype=complex)
    out[:, : x.n, : x.n] = x.entries
    out[:, x.n :, x.n :] = y.entries
    return MatrixTuple(out)


def ampliation(x: MatrixTuple, m: int) -> MatrixTuple:
    """m-fold direct sum of x with itself."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    out = x
    for _ in range(m - 1):
        out = direct_sum(out, x)
    return out


def similarity(s: np.ndarray, x: MatrixTuple) -> MatrixTuple:
    """The conjugated tuple (s^-1 x_j s); s must be comfortably invertible."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (x.n, x.n):
        raise ValueError(f"similarity matrix must be {x.n} x {x.n}, got {s.shape}")
    cond = float(np.linalg.cond(s))
    if not np.isfinite(cond) or cond > SIMILARITY_COND_LIMIT:
        raise np.linalg.LinAlgError(f"similarity matrix numerically singular (cond ~ {cond:.3e})")
    return MatrixTuple(np.array([np.linalg.solve(s, x.entries[j] @ s) for j in range(x.d)]))


def is_nilpotent(x: MatrixTuple, k: int, tol: float = 1e-10) -> bool:
    """Whether every word of size exactly k evaluates below tol in norm.

    Enumerates all d^k words, so d^k is capped at the word budget.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if x.d**k > WORD_BUDGET:
        raise BudgetExceededError(f"{x.d}^{k} words exceed the budget {WORD_BUDGET}")
    words = walk_words(x.d, k, np.eye(x.n, dtype=complex), x.times_letter)
    return all(_spectral_norm(value) <= tol for word, value in words if len(word) == k)


# ---------------------------------------------------------------------------
# JSON form: complex numbers are [re, im] pairs; a point is
# {"n": n, "d": d, "entries": d matrices of n x n pairs}


def complex_to_json(a) -> list:
    """A complex scalar or array as nested lists of [re, im] float pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def complex_from_json(raw, shape: tuple[int, int, int], key: str) -> np.ndarray:
    """The stack of matrices of the given shape written by complex_to_json.

    ``key`` names the field in the errors for lists of the wrong length.
    """
    count, rows, cols = shape
    if len(raw) != count:
        raise ValueError(f"expected {count} {key}, got {len(raw)}")
    out = np.zeros(shape, dtype=complex)
    for j, matrix in enumerate(raw):
        if len(matrix) != rows:
            raise ValueError(f"{key}[{j}] must have {rows} rows")
        for r, row in enumerate(matrix):
            if len(row) != cols:
                raise ValueError(f"{key}[{j}][{r}] must have {cols} values")
            for c, (re, im) in enumerate(row):
                out[j, r, c] = complex(float(re), float(im))
    return out


def to_point_dict(x: MatrixTuple) -> dict:
    return {"n": x.n, "d": x.d, "entries": complex_to_json(x.entries)}


def point_from_dict(obj: dict) -> MatrixTuple:
    try:
        n = int(obj["n"])
        d = int(obj["d"])
        raw = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"point object needs keys n, d, entries: {exc}") from exc
    return MatrixTuple(complex_from_json(raw, (d, n, n), "entries"))
