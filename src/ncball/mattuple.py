"""Tuples of square complex matrices, the points nc functions are evaluated at.

A level-n point of the d-variable matrix universe is a d-tuple of n x n
complex matrices.  The sup norm, direct sums and similarities
implemented here are the structural operations that graded nc functions are
required to respect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        d, n = _checked_size(d, "d"), _checked_size(n, "n")
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
    # already checked, accumulated rank-1 term by term in index order.  BLAS
    # regroups its inner sums by operand size, so a product at a direct sum could
    # differ from the blocks' products by an ulp; the fixed order keeps the zero
    # cross-blocks inert.  An a of lower rank first gets leading size-1 axes, and
    # out takes b's batch axes: arrays of unequal rank can send numpy's complex
    # multiply down a loop without fused multiply-add, and the bits would then
    # depend on the batch
    lead = a.shape[:-2]
    if a.ndim < b.ndim:
        a = a.reshape((1,) * (b.ndim - a.ndim) + a.shape)
        lead = b.shape[:-2]
    out = np.zeros((*lead, a.shape[-2], b.shape[-1]), dtype=complex)
    for k in range(a.shape[-1]):
        out += a[..., k : k + 1] * b[..., k : k + 1, :]
    return out


def seq_solve_batch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve a x = b per sample of stacks a, b by partial pivoting in fixed index order: (x, singular).

    LAPACK regroups its updates by problem size, so a solve at a direct sum
    need not reproduce the block solves to the last bit; unblocked rank-1
    elimination and a column-sweep substitution keep the cross-block zeros
    inert.  Each sample has its own pivot choice, row swaps, rank-1 updates and
    column sweep, so slice i of x is bit for bit the solve of a[i] alone.  A sample
    that meets a zero pivot is marked in the boolean mask ``singular`` and its
    slice of x is meaningless; the other samples are untouched by it.  b holds
    one right side per sample, or a single one that every sample solves.
    It eliminates batch-last on one augmented array [a | b] of shape
    (n, n + r, B), samples on the contiguous axis, so each numpy call of a
    pivot step runs over every sample at once: one row swap and one rank-1
    update per pivot, then substitution on views of the array.  Rows are
    swapped only in a step where some sample's pivot is off the diagonal, the
    last step neither searches for a pivot nor eliminates, and a zero mask is
    formed only in a step where some pivot is zero.  Every elementwise operand
    keeps the rank of the other.  x is returned as a (B, n, r) view.  Meant for
    the small systems this library produces, not as a general solver.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or b.ndim != 3 or b.shape[0] not in (1, a.shape[0]) or b.shape[1] != a.shape[1]:
        raise ValueError(f"cannot solve stacks of shapes {a.shape} and {b.shape}")
    count, n = a.shape[:2]
    ab = np.empty((n, n + b.shape[2], count), dtype=complex)
    ab[:, :n] = a.transpose(1, 2, 0)
    ab[:, n:] = b.transpose(1, 2, 0)
    singular = np.zeros(count, dtype=bool)
    for k in range(n):
        below = k + 1 < n  # the last row is its own pivot, with nothing below it to eliminate
        if below:
            offset = np.abs(ab[k:, k]).argmax(axis=0)
            if offset.any():
                moved = offset.nonzero()[0]
                piv = k + offset[moved]
                row = ab[piv, :, moved]
                ab[piv, :, moved] = ab[k, :, moved]
                ab[k, :, moved] = row
        if not ab[k, k].all():
            zero = ab[k, k] == 0
            # a unit pivot keeps the arithmetic of a singular sample finite
            singular |= zero
            ab[k, k, zero] = 1.0
        if below:
            mult = ab[k + 1 :, k] / ab[k, None, k]
            ab[k + 1 :, k + 1 :] -= mult[:, None] * ab[k, None, k + 1 :]
    a, x = ab[:, :n], ab[:, n:]
    for i in range(n - 1, -1, -1):
        x[i] /= a[i, None, i]
        x[:i] -= a[:i, i, None] * x[i, None]
    return x.transpose(2, 0, 1), singular


def direct_sum(x: MatrixTuple, y: MatrixTuple) -> MatrixTuple:
    if x.d != y.d:
        raise ValueError(f"dimension mismatch: d={x.d} vs d={y.d}")
    n = x.n + y.n
    out = np.zeros((x.d, n, n), dtype=complex)
    out[:, : x.n, : x.n] = x.entries
    out[:, x.n :, x.n :] = y.entries
    return MatrixTuple(out)


def similarity(s: np.ndarray, x: MatrixTuple) -> MatrixTuple:
    """The conjugated tuple (s^-1 x_j s); s must be comfortably invertible."""
    s = _owned_array(s, "similarity matrix")
    if s.shape != (x.n, x.n):
        raise ValueError(f"similarity matrix must be {x.n} x {x.n}, got {s.shape}")
    cond = float(np.linalg.cond(s))
    if not np.isfinite(cond) or cond > SIMILARITY_COND_LIMIT:
        raise np.linalg.LinAlgError(f"similarity matrix numerically singular (cond ~ {cond:.3e})")
    return MatrixTuple(np.array([np.linalg.solve(s, x.entries[j] @ s) for j in range(x.d)]))


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
    length, or an entry that is not an [re, im] pair of JSON numbers (a
    string or a bool is not one, nor an integer too large for a float).
    """
    values: list[complex] = []  # in C order, the order of the walk below

    def fill(node, index: tuple[int, ...]) -> None:
        place = key + "".join(f"[{i}]" for i in index)
        if len(index) == len(shape):
            try:
                re, im = node
                if any(isinstance(part, bool) or not isinstance(part, (int, float)) for part in (re, im)):
                    raise TypeError
                values.append(complex(float(re), float(im)))
            except (TypeError, ValueError, OverflowError) as exc:
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


def _checked_int(value, name: str) -> int:
    """value as an int, which must be a Python or numpy integer: a bool, a float such as 2.9 or a string is
    rejected with an error naming the value, instead of being truncated or failing in int()."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _checked_size(value, name: str, least: int = 1) -> int:
    """value as an int, which must be a Python or numpy integer >= least (see _checked_int): least is 1 for a size,
    level or order such as a JSON header's n, and 0 for a word size, degree, exponent or seed."""
    value = _checked_int(value, name)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _checked_tol(tol) -> float:
    """tol as a float, a finite real number >= 0: like _checked_int, it takes no bool, nor a numpy bool."""
    real = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, (bool, np.bool_))
    try:
        value = float(tol) if real else np.nan
    except OverflowError:  # an integer past the float range is not finite
        value = np.inf
    if not 0.0 <= value < np.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    return value


def to_point_dict(x: MatrixTuple) -> dict:
    return {"n": x.n, "d": x.d, "entries": complex_to_json(x.entries)}


def point_from_dict(obj: dict) -> MatrixTuple:
    try:
        n, d = _checked_size(obj["n"], "n"), _checked_size(obj["d"], "d")
        raw = obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"point object needs keys n, d, entries: {exc}") from exc
    return MatrixTuple(complex_from_json(raw, (d, n, n), "entries"))
