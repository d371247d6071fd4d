"""Tuples of square complex matrices, the points nc functions are evaluated at.

A level-n point of the d-variable matrix universe is a d-tuple of n x n
complex matrices.  The sup norm, direct sums, similarities, ampliations and
word evaluation implemented here are the structural operations
that graded nc functions are required to respect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .freealg import Word, walk_levels

SIMILARITY_COND_LIMIT = 1e12


def _owned_array(value, what: str) -> np.ndarray:
    """A read-only complex copy of value; NaN or inf is rejected, naming ``what``.

    Value types store only such copies, so no caller can change them later.
    """
    arr = np.array(value, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite (found NaN or inf)")
    arr.setflags(write=False)
    return arr


# eq=False keeps the array-aware __eq__ below and leaves the class unhashable
@dataclass(frozen=True, eq=False, slots=True)
class MatrixTuple:
    """Immutable d-tuple of n x n complex matrices, stored as a (d, n, n) array."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _owned_array(self.entries, "point entries")
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected shape (d, n, n), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"d and n must be >= 1, got shape {arr.shape}")
        object.__setattr__(self, "entries", arr)

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

    def __eq__(self, other):
        if not isinstance(other, MatrixTuple):
            return NotImplemented
        return bool(np.array_equal(self.entries, other.entries))

    __hash__ = None

    def __repr__(self):
        return f"MatrixTuple(d={self.d}, n={self.n})"


def _spectral_norms(a: np.ndarray) -> np.ndarray:
    """The largest singular value of each matrix of a stack (..., r, c).

    LAPACK factors every matrix of a stack on its own, so slice i is bit for
    bit the norm of a[i] taken alone, and of np.linalg.norm(a[i], 2).
    """
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def _spectral_norm(a: np.ndarray) -> float:
    """The largest singular value of a matrix, bit for bit np.linalg.norm(a, 2)."""
    return float(_spectral_norms(a))


def sup_norm(x: MatrixTuple) -> float:
    """max_j of the largest singular value of the j-th entry."""
    return max(_spectral_norm(entry) for entry in x.entries)


def _unit_disk_points(rng: np.random.Generator, count: int) -> list[complex]:
    """count points of the open unit disk, uniform by area: all radii sqrt(u), then all phases."""
    radii = np.sqrt(rng.uniform(0.0, 1.0, count))
    phases = rng.uniform(0.0, 2.0 * np.pi, count)
    return [complex(r * np.cos(t), r * np.sin(t)) for r, t in zip(radii, phases)]


def point_stack(xs, d: int) -> np.ndarray:
    """xs as a (B, d, n, n) complex stack of level-n points, validated.

    The batched evaluators take such stacks; slice i is the entries of the
    i-th point.  NaN or inf is rejected as for a single point.
    """
    xs = np.asarray(xs, dtype=complex)
    if xs.ndim != 4 or xs.shape[2] != xs.shape[3] or xs.shape[2] < 1:
        raise ValueError(f"expected a stack of shape (B, d, n, n), got {xs.shape}")
    if xs.shape[1] != d:
        raise ValueError(f"stack of {xs.shape[1]}-tuples for a function of d={d} variables")
    if not np.isfinite(xs).all():
        raise ValueError("point entries must be finite (found NaN or inf)")
    return xs


def _seq_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the one fixed-order product: complex arrays a (..., m, k) and b (..., k, n),
    # already checked.  An a of lower rank is first broadcast to b's batch axes:
    # arrays of unequal rank can send numpy's complex multiply down a loop
    # without fused multiply-add, and the bits would then depend on the batch
    if a.ndim < b.ndim:
        a = np.broadcast_to(a, (*b.shape[:-2], *a.shape[-2:]))
    out = np.zeros((*a.shape[:-1], b.shape[-1]), dtype=complex)
    for k in range(a.shape[-1]):
        out += a[..., k : k + 1] * b[..., k : k + 1, :]
    return out


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
    return _seq_matmul(a, b)


def seq_solve_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """seq_solve over a leading batch axis: (x, singular) for stacks a, b.

    Slice i of x is seq_solve(a[i], b[i]) bit for bit, with the same pivot
    choice, row swaps, rank-1 updates and column sweep per sample.  A sample
    that meets a zero pivot is marked in the boolean mask ``singular`` and its
    slice of x is meaningless; the other samples are untouched by it.
    It eliminates on one augmented stack [a | b], its only copy: one row swap
    and one rank-1 update per pivot, then substitution on views of the stack.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.ndim != 3 or b.shape[:2] != a.shape[:2]:
        raise ValueError(f"cannot solve stacks of shapes {a.shape} and {b.shape}")
    count, n = a.shape[:2]
    ab = np.concatenate((a, b), axis=2)
    singular = np.zeros(count, dtype=bool)
    for k in range(n):
        piv = k + np.abs(ab[:, k:, k]).argmax(axis=1)
        moved = (piv != k).nonzero()[0]
        if len(moved):
            row = ab[moved, piv[moved]]
            ab[moved, piv[moved]] = ab[moved, k]
            ab[moved, k] = row
        zero = ab[:, k, k] == 0
        if np.count_nonzero(zero):
            # a unit pivot keeps the arithmetic of a singular sample finite
            singular |= zero
            ab[zero, k, k] = 1.0
        mult = ab[:, k + 1 :, k : k + 1] / ab[:, k : k + 1, k : k + 1]
        ab[:, k + 1 :, k + 1 :] -= mult * ab[:, k : k + 1, k + 1 :]
    a, x = ab[..., :n], ab[..., n:]
    for i in range(n - 1, -1, -1):
        x[:, i : i + 1, :] /= a[:, i : i + 1, i : i + 1]
        x[:, :i, :] -= a[:, :i, i : i + 1] * x[:, i : i + 1, :]
    return x, singular


def seq_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by partial-pivoting elimination in fixed index order.

    Same constraint as seq_matmul: LAPACK regroups its updates by problem
    size, so a solve at a direct sum need not reproduce the assembled block
    solves to the last bit.  Unblocked rank-1 elimination and a column sweep
    substitution keep the cross-block zeros inert.  Meant for the small
    systems this library produces, not as a general solver.  This is the
    batch of one of seq_solve_batch.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    squeeze = b.ndim == 1
    if squeeze:
        b = b.reshape(-1, 1)
    n = a.shape[0]
    if a.ndim != 2 or a.shape != (n, n) or b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"cannot solve shapes {a.shape} and {b.shape}")
    x, singular = seq_solve_batch(a[None], b[None])
    if singular[0]:
        raise np.linalg.LinAlgError("matrix is singular")
    return x[0, :, 0] if squeeze else x[0]


def _monomials(xs: np.ndarray) -> tuple:
    """The walk_levels column of X^w at a point (d, n, n) or a stack (B, d, n, n).

    Each step is the fixed-order kernel with factors of one rank, so X^w has
    the same bits in any stack of words or points.
    """
    root = np.broadcast_to(np.eye(xs.shape[-1], dtype=complex), (1, *xs.shape[:-3], *xs.shape[-2:])).copy()
    return root, lambda stack, j: _seq_matmul(stack, xs[None, ..., j - 1, :, :])


def _word_values(xs: np.ndarray, words) -> dict[tuple[int, ...], np.ndarray]:
    """{w: X^w} for letter tuples w at a point or a stack, from one walk over their prefixes."""
    wanted = set(words)
    levels = walk_levels(xs.shape[-3], max(map(len, wanted), default=-1), _monomials(xs), words=wanted)
    return {w: xw for prefixes, (xws,) in levels for w, xw in zip(prefixes, xws) if w in wanted}


def eval_word(x: MatrixTuple, word: Word) -> np.ndarray:
    """The product x_{w_1} ... x_{w_k}; the empty word gives the identity."""
    if word.d != x.d:
        raise ValueError(f"word over alphabet 1..{word.d} evaluated at a {x.d}-tuple")
    return _word_values(x.entries, [word.letters])[word.letters]


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
    """Whether every word of size exactly k evaluates below tol in norm; the word budget caps k (k <= 18 at d = 2)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    levels = walk_levels(x.d, k, _monomials(x.entries))
    return all((_spectral_norms(xw) <= tol).all() for size, (xw,) in levels if size == k)


# ---------------------------------------------------------------------------
# JSON form: complex numbers are [re, im] pairs; a point is
# {"n": n, "d": d, "entries": d matrices of n x n pairs}


def complex_to_json(a) -> list:
    """A complex scalar or array as nested lists of [re, im] float pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def complex_from_json(raw, shape: tuple[int, ...], key: str) -> np.ndarray:
    """The complex array of the given shape written by complex_to_json.

    Every error names its place in the field ``key``: a list of the wrong
    length, or an entry that is not an [re, im] pair of numbers.
    """
    values: list[complex] = []  # in C order, the order of the walk below

    def fill(node, index: tuple[int, ...]) -> None:
        place = key + "".join(f"[{i}]" for i in index)
        if len(index) == len(shape):
            try:
                re, im = node
                values.append(complex(float(re), float(im)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{place} must be an [re, im] pair of numbers, got {node!r}") from exc
            return
        size = shape[len(index)]
        count = len(node) if isinstance(node, (list, tuple)) else f"{node!r}, not a list"
        if count != size:
            unit = "values" if len(index) == len(shape) - 1 else "rows"
            wanted = f"{place} must have {size} {unit}" if index else f"expected {size} {key}"
            raise ValueError(f"{wanted}, got {count}")
        for i, child in enumerate(node):
            fill(child, (*index, i))

    fill(raw, ())
    return np.array(values, dtype=complex).reshape(shape)


def json_size(obj: dict, key: str) -> int:
    """The size obj[key] of a JSON header, which must be an integer.

    A bool, a float such as 2.9 or a string is rejected with an error naming
    the key, instead of being truncated or failing in int().
    """
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def to_point_dict(x: MatrixTuple) -> dict:
    return {"n": x.n, "d": x.d, "entries": complex_to_json(x.entries)}


def point_from_dict(obj: dict) -> MatrixTuple:
    try:
        n, d = json_size(obj, "n"), json_size(obj, "d")
        raw = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"point object needs keys n, d, entries: {exc}") from exc
    return MatrixTuple(complex_from_json(raw, (d, n, n), "entries"))
