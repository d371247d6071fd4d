"""Free words, sparse free noncommutative polynomials, and NCFunction, the evaluation protocol of every nc function.

The variables z1, ..., zd do not commute: z1*z2 and z2*z1 are distinct
monomials.  Words over the alphabet {1, ..., d}, tuples of letters, index
the monomials and are ordered length-lexicographically (shorter first, then
lexicographic with 1 < 2 < ... < d).  Coefficients are complex doubles; only exact zeros are
dropped, nothing is epsilon-pruned.  The values X^w of words at matrix points
come from the one word walk: walk_levels over all words up to a size, or its
prefix form over a polynomial's words.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .mattuple import MatrixTuple, _checked_int, _checked_size, _seq_matmul, point_stack

WORD_BUDGET = 10**6  # the words a walk_levels or words_of_size visits, the term pairs a _product forms
# stacks stepped or evaluated together take at most this many bytes, as _batch_size
# counts them: larger walk levels come out in chunks, and the probe's stacks hold
# as many points as fit it with one target value each
BATCH_BYTES = 64 * 1024


# a stretch of term sums whose rows hold at most this many numbers is added by one np.add.accumulate, a longer one
# row by row: accumulate steps number by number down the term axis, while one add per row is vectorized, and the two
# cost about the same at rows of 64 to 128 numbers (2-core x86-64, numpy 2.4)
ACCUMULATE_NUMBERS = 128


def _batch_size(count: int, nbytes: int) -> int:
    """How many of count items, nbytes in all, go in one batch: as many as fit BATCH_BYTES, at least one; all if no bytes."""
    return max(1, BATCH_BYTES * count // max(1, nbytes))


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured desk-scale word budget."""


class PolyParseError(ValueError):
    """Syntax or semantic error in a polynomial expression.

    ``position`` is the 0-based index of the offending token in the input
    string.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _capped_power(d: int, k: int, budget: int) -> int:
    """d^k if that is at most budget, else a power of d past budget: the exponent is capped, so it costs O(1) in k."""
    return d ** min(k, budget.bit_length() + 1)


def _dense_count(d: int, size: int) -> int:
    """d^0 + ... + d^size, the words a dense walk visits: exact up to WORD_BUDGET, past it whenever the sum is."""
    return size + 1 if d == 1 else (_capped_power(d, size + 1, WORD_BUDGET) - 1) // (d - 1)


def words_of_size(d: int, k: int) -> Iterator[tuple[int, ...]]:
    """All words of size exactly k as letter tuples, length-lex; d, k and d^k <= WORD_BUDGET are checked at the call.

    At d = 1 the one word is charged its k letters: k <= WORD_BUDGET."""
    d, k = _checked_size(d, "d"), _checked_size(k, "word size k", 0)
    if _capped_power(d, k, WORD_BUDGET) > WORD_BUDGET:
        raise BudgetExceededError(f"{d}^{k} words exceed the budget {WORD_BUDGET}")
    if d == 1 and k > WORD_BUDGET:  # one word, of k letters
        raise BudgetExceededError(f"a word of {k} letters exceeds the budget {WORD_BUDGET}")
    return itertools.product(range(1, d + 1), repeat=k)


def walk_levels(d: int, size: int, *columns) -> Iterator[tuple[int, tuple]]:
    """(k, stacks) for the words of each size k <= size, one stack per column (root, step).

    value(empty) = root, and step(stack, j) stacks the words w j of a stack of
    words w, so the children come in (parent, letter) order: length-lex.  A
    level whose stacks pass BATCH_BYTES comes out as consecutive chunks, each
    walked on before the next, so memory stays bounded.  It visits
    d^0 + ... + d^size words; more than WORD_BUDGET raise BudgetExceededError at the call.
    """
    d, size = _checked_size(d, "d"), _checked_int(size, "size")
    if not columns:
        raise ValueError("walk_levels needs at least one (root, step) column")
    if _dense_count(d, size) > WORD_BUDGET:
        raise BudgetExceededError(f"{d}^0 + ... + {d}^{size} words exceed the budget {WORD_BUDGET}")
    return _walk(d, size, columns, None)


def _walk(d: int, size: int, columns, keep) -> Iterator[tuple[object, tuple]]:
    """walk_levels if keep is None, else (prefixes, stacks) over the prefixes in keep.

    A prefix level comes out in the order it is stepped, one stack per letter:
    the children by letter 1, then by letter 2, and so on.
    """
    todo = [(0, None if keep is None else [()], tuple(root for root, _ in columns))] if size >= 0 else []
    while todo:
        k, prefixes, stacks = todo.pop()
        yield (k if prefixes is None else prefixes), stacks
        if k == size:
            continue
        if keep is None:
            kids = [np.stack([step(s, j) for j in range(1, d + 1)], axis=1) for s, (_, step) in zip(stacks, columns)]
            kids = [kid.reshape(len(kid) * d, *kid.shape[2:]) for kid in kids]
        else:
            parents = [[i for i, p in enumerate(prefixes) if p + (j,) in keep] for j in range(1, d + 1)]
            if not any(parents):
                continue
            kids = [
                np.concatenate([step(s if len(sel) == len(prefixes) else s[sel], j) for j, sel in enumerate(parents, 1) if sel])
                for s, (_, step) in zip(stacks, columns)
            ]
            prefixes = [prefixes[i] + (j,) for j, sel in enumerate(parents, 1) for i in sel]
        count = len(kids[0])
        chunk = _batch_size(count, sum(kid.nbytes for kid in kids))
        for rows in reversed([slice(i, i + chunk) for i in range(0, count, chunk)]):
            todo.append((k + 1, None if prefixes is None else prefixes[rows], tuple(kid[rows] for kid in kids)))


def _monomials(xs: np.ndarray) -> tuple:
    """The walk_levels column of X^w at a point (d, n, n) or a stack (B, d, n, n).

    Each step is the fixed-order kernel with factors of one rank, so X^w has
    the same bits in any stack of words or points.
    """
    root = np.broadcast_to(np.eye(xs.shape[-1], dtype=complex), (1, *xs.shape[:-3], *xs.shape[-2:])).copy()
    return root, lambda stack, j: _seq_matmul(stack, xs[None, ..., j - 1, :, :])


def _word_values(xs: np.ndarray, words) -> dict[tuple[int, ...], np.ndarray]:
    """{w: X^w} for letter tuples w at a point or a stack, from one walk over their prefixes."""
    wanted, keep = set(words), set()
    for word in wanted:  # each word's prefixes, longest first, down to the first one kept: the shorter ones are too
        for i in range(len(word), -1, -1):
            if word[:i] in keep:
                break
            keep.add(word[:i])
    levels = _walk(xs.shape[-3], max(map(len, wanted), default=-1), (_monomials(xs),), keep)
    return {w: xw for prefixes, (xws,) in levels for w, xw in zip(prefixes, xws) if w in wanted}


def eval_word(x: MatrixTuple, word) -> np.ndarray:
    """The product x_{w_1} ... x_{w_k} for a word of letters in 1..d of x; the empty word gives the identity."""
    letters = _checked_letters(word, x.d)
    return _word_values(x.entries, [letters])[letters]


class NCFunction:
    """An nc function of d variables, evaluated at level-n points (d-tuples of n x n matrices).

    A subclass defines ``d`` and ``_values(xs) -> (values, errors)`` on any
    validated (B, d, n, n) stack, B = 0 included: values[i] is the value at
    point i and ``errors`` maps each failed sample's index to the error it met.
    A subclass with a pencil also defines ``pencil`` and takes the validated
    norms of ``eval_batch`` as ``_values(xs, pencil_norms)``.
    ``eval`` and ``eval_batch`` are written here once, and two rules hold:

    - *Bitwise per sample.*  values[i] is bit for bit ``eval`` at point i, at
      any batch size and next to any other points.
    - *Per-sample failures.*  A sample whose evaluation fails (a tripped
      resolvent guard, a zero pivot) is masked and its values are NaN; the
      other samples keep their bits, and ``eval`` at that point alone raises
      the error that sample met.
    """

    __slots__ = ()

    def eval_batch(self, xs, *, pencil_norms=None) -> tuple[np.ndarray, np.ndarray]:
        """The values at each point of a (B, d, n, n) stack and the boolean mask of failed samples.

        ``pencil_norms``, for a function with a pencil Q, is the exact ||Q(X)||
        of each point for the function's own pencil, as the ball of Q measures
        it (``Pencil.norms_at``).  A resolvent guard may take it as a
        certificate in place of a condition number; no value or failure changes.
        """
        stack = point_stack(xs, self.d)
        if pencil_norms is None:
            values, errors = self._values(stack)
        else:
            if getattr(self, "pencil", None) is None:
                raise TypeError(f"{type(self).__name__} has no pencil for pencil_norms to measure")
            norms = np.asarray(pencil_norms, dtype=float)
            if norms.shape != (len(stack),):
                raise ValueError(f"pencil_norms of shape {norms.shape} for a stack of {len(stack)} points")
            if not (np.isfinite(norms) & (norms >= 0.0)).all():
                raise ValueError("pencil_norms must be finite and >= 0")
            values, errors = self._values(stack, norms)
        failed = np.zeros(len(values), dtype=bool)
        if errors:
            failed[list(errors)] = True
        return values, failed

    def eval(self, x) -> np.ndarray:
        """The value at a MatrixTuple x, as a matrix; raises the error met there."""
        return self._at(x, self._values)

    def _at(self, x, values) -> np.ndarray:
        """values(stack) at the point x alone, after the d check: a batch of one."""
        self._check_d(x)
        out, errors = values(x.entries[None])
        if errors:
            raise errors[0]
        return out[0]

    def _check_d(self, x) -> None:
        """Reject a MatrixTuple x whose number of variables is not this function's d."""
        if x.d != self.d:
            raise ValueError(f"{type(self).__name__} in d={self.d} variables evaluated at a {x.d}-tuple")

    def _truncation(self, x, order: int) -> tuple[np.ndarray, np.ndarray]:
        """(f(X), sum_{|v|<N} c_v X^v + sum_{|w|=N} X^w g_w(X)) at a MatrixTuple x, N = order >= 1: tt_check's sides.

        Raises the wrong d first, then the point's own evaluation error, then the word budget."""
        raise _no_split(self)

    def _remainder_column(self, order: int) -> "NCFunction":
        """col(g_w) over the words w of size N = order >= 1: the column target of regularity_factors."""
        raise _no_split(self)


def _no_split(f) -> TypeError:
    return TypeError(f"truncation splits polynomials and realizations, got {type(f).__name__}")


def _added(rhs: np.ndarray, products) -> np.ndarray:
    """rhs + products[0] + products[1] + ..., one add at a time in order: one accumulate, the bits of rhs += product.

    products, a (K, n, n) stack or a list of K >= 0 arrays, is stacked under rhs as one array."""
    return np.add.accumulate(np.concatenate([rhs[None], np.reshape(products, (-1, *rhs.shape))]))[-1]


def _spans(term_lists) -> tuple[list, list]:
    """The term lists one after another as one list, and the (start, stop) span of each in it."""
    bounds = list(itertools.accumulate(map(len, term_lists), initial=0))
    return [term for terms in term_lists for term in terms], list(zip(bounds, bounds[1:]))


def _term_sums(values: Mapping, terms: list, spans: list, shape: tuple) -> np.ndarray:
    """(len(spans), *shape): for each (start, stop) span of terms, (word, coeff) pairs, sum c_w values[w] added from
    +0.0 one term at a time in order, the bits of out = out + c * values[w] term by term (but for which NaN a
    NaN + NaN keeps, which numpy's add picks by the element's place in its vector loop).

    The products of a chunk of terms, as many as fit BATCH_BYTES, are one stacked multiply.  The spans then add
    position by position, longest first, so the spans still adding are a leading run of them, and each stretch of
    positions with the same run is one accumulate from the sums so far, or one add per row if its rows are long."""
    out = np.zeros((len(spans), *shape), dtype=complex)
    chunk = _batch_size(len(terms), len(terms) * out[:1].nbytes)
    for first in range(0, len(terms), chunk):
        last = first + chunk
        words, coeffs = zip(*terms[first:last])
        # c * X^w into a new array: numpy's multiply with out= takes another loop, which rounds some products otherwise
        products = np.array(coeffs).reshape((-1,) + (1,) * len(shape)) * np.array([values[w] for w in words], dtype=complex)
        local = [
            (max(a, first) - first, min(b, last) - first, i) for i, (a, b) in enumerate(spans) if a < last and b > first
        ]
        local.sort(key=lambda span: span[0] - span[1])
        starts, rows, done = np.array([a for a, _, _ in local], dtype=int), [i for _, _, i in local], 0
        for active in range(len(local), 0, -1):  # the first active spans are the ones longer than done
            a, b, i = local[active - 1]
            if b - a > done:
                if active == 1:  # the chunk's last stretch: no span reads these products again, so they sum in place
                    block, sel = products[a + done : b], i
                else:
                    block, sel = products[starts[:active] + np.arange(done, b - a)[:, None]], rows[:active]
                carry = out[sel]
                if carry.size > ACCUMULATE_NUMBERS:
                    for row in block:
                        carry += row
                else:
                    block[0] += carry
                    carry = np.add.accumulate(block, out=block)[-1]
                out[sel] = carry
                done = b - a
    return out


def _add_term(terms: dict, word, coeff: complex) -> dict:
    """terms[word] += coeff, as FreePolynomial keeps its terms; returns terms.

    A new word gets 0j + coeff, which turns -0.0 into +0.0; a word whose sum
    is exactly zero is dropped, and goes to the end if it comes back."""
    total = terms.get(word, 0j) + coeff
    if total != 0:
        terms[word] = total
    else:
        terms.pop(word, None)
    return terms


def _checked_letters(word, d: int) -> tuple[int, ...]:
    """The letter tuple of a word, a sequence of Python or numpy integers (no bool), each checked against 1..d."""
    letters = tuple(word)
    for letter in letters:
        if isinstance(letter, bool) or not isinstance(letter, (int, np.integer)):
            raise TypeError(f"letter {letter!r} is not an integer")
        if not 1 <= letter <= d:
            raise ValueError(f"letter {letter} outside alphabet 1..{d}")
    return tuple(map(int, letters))


def _word_text(word: tuple[int, ...], d: int) -> str:
    """The text of a word: its digits for d <= 9, its dash-separated numbers beyond."""
    return ("" if d <= 9 else "-").join(map(str, word))


def _parse_word(text: str, d: int) -> tuple[int, ...]:
    """The letters of a _word_text form, ASCII digits or dash-separated numbers; past d = 9 no dash means one letter."""
    text = text.strip()
    if not re.fullmatch(r"([0-9]+(-[0-9]+)*)?", text):
        raise ValueError(f"word {text!r} is not a string of digits 0-9 or of dash-separated numbers")
    return _checked_letters(map(int, text.split("-") if "-" in text or (d > 9 and text) else text), d)


def _product(left: dict, right: dict) -> dict:
    """The product of two term maps keyed by letter tuples.

    Each word sums its products from 0j in (left, right) order and keeps the
    place of its first product; the exact zeros are dropped at the end.  More
    than WORD_BUDGET pairs of terms raise BudgetExceededError before any."""
    if len(left) * len(right) > WORD_BUDGET:
        raise BudgetExceededError(f"{len(left)} x {len(right)} term products exceed the budget {WORD_BUDGET}")
    out: dict[tuple[int, ...], complex] = {}
    for u, a in left.items():
        for v, b in right.items():
            out[u + v] = out.get(u + v, 0j) + a * b
    return {w: c for w, c in out.items() if c != 0}


def _power(terms: dict, k: int) -> dict:
    """terms^k, k _products from {(): 1 + 0j}.  The k powers of its longest word, of L letters, are charged
    max(L, 1) (1 + ... + k) letters first: more than WORD_BUDGET raise BudgetExceededError before any product."""
    letters = max([1, *map(len, terms)])
    if letters * k * (k + 1) // 2 > WORD_BUDGET:
        raise BudgetExceededError(f"{letters} x (1 + ... + {k}) letters exceed the budget {WORD_BUDGET}")
    return functools.reduce(_product, itertools.repeat(terms, k), {(): 1 + 0j})


def _times_letters(terms: dict, letters: tuple[int, ...]) -> dict:
    """terms * zj1 * ... * zjk for letters (j1, ..., jk), k >= 0, as k calls of _product by {(j,): 1 + 0j} take it.

    Such a product keeps the order of the terms and gives each the one
    product 0j + c * (1 + 0j); a term is dropped once its coefficient is
    exactly zero, and zero stays zero.  So each term goes through the k
    products on its own, and its word gains the k letters at once (k = 0 copies
    a term map, which keeps no exact zero).  For a finite c each product is
    exactly 0j + c, each part plus +0.0, so one add stands for all k.  Each
    product forms len(terms) pairs, so the caller keeps that within the budget."""
    out: dict[tuple[int, ...], complex] = {}
    for word, coeff in terms.items():
        if letters and cmath.isfinite(coeff):
            coeff = 0j + coeff
        else:
            for _ in letters:
                coeff = 0j + coeff * (1 + 0j)
        if coeff != 0:
            out[word + letters] = coeff
    return out


def _negated(terms: dict) -> dict:
    """-terms as 0j + -c: 0j - c would keep the sign bit of a NaN coefficient."""
    return {w: 0j + -c for w, c in terms.items()}


@dataclass(frozen=True, slots=True)
class FreePolynomial(NCFunction):
    """Sparse formal sum  sum_w c_w z^w  in d noncommuting variables.

    ``terms`` maps each word's letter tuple to its nonzero coefficient, as a read-only view.
    The constructor takes any sequences of integer letters in 1..d as keys.
    """

    d: int
    terms: Mapping[tuple[int, ...], complex] | None = None

    def __post_init__(self):
        d = _checked_size(self.d, "d")
        clean: dict[tuple[int, ...], complex] = {}
        for key, value in (self.terms or {}).items():
            _add_term(clean, _checked_letters(key, d), complex(value))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def _trusted(cls, d: int, terms: Mapping[tuple[int, ...], complex]) -> "FreePolynomial":
        """FreePolynomial(d, terms) for distinct letter tuples known to lie in 1..d, unchecked."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "d", d)
        object.__setattr__(poly, "terms", MappingProxyType({w: 0j + c for w, c in terms.items() if c != 0}))
        return poly

    @property
    def degree(self) -> int:
        """Largest word size present, -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def coefficient(self, word) -> complex:
        """c_w for a word of letters in 1..d, checked as the constructor checks a key; 0 for an absent word."""
        return self.terms.get(_checked_letters(word, self.d), 0j)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], complex]]:
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))  # length-lex: (length, letters)

    def _values(self, xs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        """sum_w c_w x^w at each point of a stack, every x^w from one walk over the terms' prefixes; never fails."""
        shape = (len(xs), *xs.shape[-2:])
        return _term_sums(_word_values(xs, self.terms), self.sorted_terms(), [(0, len(self.terms))], shape)[0], {}

    def _truncation(self, x, order: int) -> tuple[np.ndarray, np.ndarray]:
        self._check_d(x)
        # from the length-lex terms, each f_w's terms come out length-lex, and each size k < N is one slice; an absent
        # size adds +0.0 to a sum that is never -0.0, so no bit changes
        own = self.sorted_terms()
        quotients, sizes = _quotient_terms(own, order), [len(w) for w, _ in own]
        edges = [bisect.bisect_left(sizes, k) for k in range(min(order, self.degree + 1) + 1)]
        low = list(zip(edges, edges[1:]))
        terms, spans = _spans([own, *quotients.values()])
        values = _word_values(x.entries, [*self.terms, *quotients, *(v for v, _ in terms[len(own) :])])
        sums = _term_sums(values, terms, [spans[0], *low, *spans[1:]], (x.n, x.n))
        # one stacked product, whose slices have the bits of the 2-D values[w] @ f_w(X): numpy runs that kernel on each
        heads = np.array([values[w] for w in quotients], dtype=complex).reshape(-1, x.n, x.n)
        tail = np.concatenate([sums[1 : 1 + len(low)], heads @ sums[1 + len(low) :]])
        return sums[0], _added(np.zeros((x.n, x.n), dtype=complex), tail)

    def _remainder_column(self, order: int) -> "QuotientColumn":
        return QuotientColumn(self, order)

    @classmethod
    def zero(cls, d: int) -> "FreePolynomial":
        return cls(d)

    @classmethod
    def constant(cls, d: int, value: complex) -> "FreePolynomial":
        return cls(d, {(): value})

    @classmethod
    def generator(cls, d: int, j: int) -> "FreePolynomial":
        """The variable zj as a polynomial."""
        return cls(d, {(j,): 1.0})

    def _require_same_d(self, other: "FreePolynomial"):
        if other.d != self.d:
            raise ValueError(f"dimension mismatch: d={self.d} vs d={other.d}")

    def __add__(self, other):
        if not isinstance(other, FreePolynomial):
            return NotImplemented
        self._require_same_d(other)
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            _add_term(out, word, coeff)
        return FreePolynomial._trusted(self.d, out)

    def __sub__(self, other):
        if not isinstance(other, FreePolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FreePolynomial._trusted(self.d, _negated(self.terms))

    def __mul__(self, other):
        if isinstance(other, FreePolynomial):
            self._require_same_d(other)
            return FreePolynomial._trusted(self.d, _product(self.terms, other.terms))
        if isinstance(other, (int, float, complex)):
            # complex() makes a numpy scalar's product a Python complex; an inf * s = NaN stays silent, as in Python
            with np.errstate(invalid="ignore", over="ignore"):
                return FreePolynomial._trusted(self.d, {w: complex(c * other) for w, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        return FreePolynomial._trusted(self.d, _power(self.terms, _checked_size(k, "exponent", 0)))

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"FreePolynomial(d={self.d}, {format_poly(self)!r})"


def homogeneous_component(p: FreePolynomial, k: int) -> FreePolynomial:
    """The part of p supported on words of size exactly k: p's terms, already checked, in p's order."""
    k = _checked_size(k, "k", 0)
    return FreePolynomial._trusted(p.d, {w: c for w, c in p.terms.items() if len(w) == k})


def left_divide(p: FreePolynomial, n: int) -> dict[tuple[int, ...], FreePolynomial]:
    """Quotients f_w of the exact division  p = sum_{|w|=n} z^w f_w, keyed by the letter tuples w.

    Requires every word of p to have size >= n; the returned map covers all
    d^n words of size n in insertion order equal to length-lex order, and
    the absent heads share one zero quotient.
    """
    n = _checked_size(n, "n")
    low = next((w for w in p.terms if len(w) < n), None)
    if low is not None:
        raise ValueError(f"word {_word_text(low, p.d)!r} of size {len(low)} < {n}: p is not left-divisible")
    heads, tails, zero = words_of_size(p.d, n), _quotient_terms(p.terms.items(), n), FreePolynomial.zero(p.d)
    return {head: FreePolynomial._trusted(p.d, dict(tails[head])) if head in tails else zero for head in heads}


@dataclass(frozen=True)
class QuotientColumn(NCFunction):
    """col(g_w(X)) over the words w of size N = size, each g_w cut from p's words of size >= N as tt_check cuts it."""

    p: FreePolynomial
    size: int
    # the length-lex terms of each g_w, over all words w of the size in length-lex order, one list after another,
    # and the span of each g_w in it: cut out and flattened once, when the column is built
    terms: list = field(init=False, repr=False, compare=False)
    spans: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pieces = _quotient_terms(self.p.sorted_terms(), _checked_size(self.size, "size"))
        terms, spans = _spans([pieces.get(head, []) for head in words_of_size(self.p.d, self.size)])
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "spans", spans)

    @property
    def d(self) -> int:
        return self.p.d

    def _values(self, xs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        shape = (len(xs), *xs.shape[-2:])
        sums = _term_sums(_word_values(xs, [v for v, _ in self.terms]), self.terms, self.spans, shape)
        return sums.transpose(1, 0, 2, 3).reshape(len(xs), len(sums) * xs.shape[-1], xs.shape[-1]), {}


def _quotient_terms(terms, n: int) -> dict[tuple[int, ...], list]:
    """{w: the (v, c) of each (wv, c) of terms with |w| = n, in the order of terms}, the heads w in length-lex order."""
    pieces: dict[tuple[int, ...], list] = {}
    for word, coeff in terms:
        if len(word) >= n:
            pieces.setdefault(word[:n], []).append((word[n:], coeff))
    return {head: pieces[head] for head in sorted(pieces)}


def compose(p: FreePolynomial, inner) -> FreePolynomial:
    """Substitute inner[j-1] for zj in p; the inner polynomials share one d."""
    inner = list(inner)
    if len(inner) != p.d:
        raise ValueError(f"need {p.d} inner polynomials, got {len(inner)}")
    dims = {q.d for q in inner}
    if len(dims) != 1:
        raise ValueError(f"inner polynomials disagree on d: {sorted(dims)}")
    out = {}
    for word, coeff in p.terms.items():
        # no partial sum has a -0.0 part, so adding c * coeff adds what coeff * prod stored, 0j + c * coeff
        for w, c in functools.reduce(_product, (inner[j - 1].terms for j in word), {(): 1 + 0j}).items():
            _add_term(out, w, c * coeff)
    return FreePolynomial._trusted(dims.pop(), out)


# ---------------------------------------------------------------------------
# parsing and formatting


_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# one token per match, with the whitespace before it; the group that closes last, match.lastindex, names its kind
_TOKEN = re.compile(
    rf"""\s*(?:
    (   (?:([-+])\s*)?                                  # 1 a run: 2 its sign, if any, then
        (?: (?: \(([+-]?)({_NUMBER})([+-])({_NUMBER})i\) # 3-6 the signs and numbers of a '(re+im i)' pair
              | ({_NUMBER}i?|i) )                        # 7 or a real or imaginary literal or 'i',
            (?:\*z([0-9]+(?:\*z[0-9]+)*))?              # 8 and the digits of its letters, each after a bare '*z',
          | z([0-9]+(?:\*z[0-9]+)*) ) )                  # 9 or those of letters alone
    | (\^)\s*({_NUMBER}i?)?                             # 10 '^', 11 its exponent if a number follows
    | (\+) | (-) | (\*) | (\() | (\)) | (\S) | (\Z)       # 12-16 the operators, 17 any other character, 18 the end
    )""",
    re.VERBOSE,
)
_RUN, _SIGN = 1, 2
_POWER, _EXPONENT, _PLUS, _MINUS, _TIMES, _OPEN, _CLOSE, _BAD, _END = range(10, 19)
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
NESTING = 200  # parentheses nest at most this deep


def _lexical_error(text: str) -> PolyParseError | None:
    """The error of the first character of text that starts no token: a bare 'z', a lone '.' or any other."""
    for match in _TOKEN.finditer(text):
        if match.lastindex == _BAD:
            bad = match[_BAD]
            errors = {"z": "variable name must be z followed by an index", ".": "malformed number"}
            return PolyParseError(errors.get(bad, f"unexpected character {bad!r}"), match.start(_BAD))
    return None


def _at(match: re.Match) -> int:
    """The position of a match's token, after the whitespace before it."""
    return match.end() - len(match[0].lstrip())


def _lexeme(match: re.Match) -> str:
    """A token's text, for a run its first token after its sign: '(' of a pair, its literal or its first letter."""
    if match.lastindex != _RUN:
        return match[0].lstrip()[:1]  # every other token is one character, a power's the '^' before its exponent
    return "(" if match[4] is not None else match[7] or f"z{match[9].partition('*')[0]}"


class _Reader:
    """Recursive descent over the _TOKEN matches of a text, on {letters: coefficient} term maps.

    Grammar (the product sign is mandatory, juxtaposition is an error):

        expr    := term (('+' | '-') term)*
        term    := factor ('*' factor)*
        factor  := ('+' | '-')* primary ('^' exponent)*
        primary := number | number 'i' | 'i' | variable | '(' expr ')'

    Sums, products, powers and signs go through _add_term, _product, _power and
    _negated (a run's literal is one scalar sum with their bits), and the parse
    ends in FreePolynomial._trusted, as +, -, * and ** do: a parse has their
    bits and term order by construction.  A run's sign is a token of its own,
    the sum's operator or a factor's sign.  The rest of the run, the factors
    'literal * z_j * ...' or 'z_j * ...', has its letters checked, in order,
    where it is read; its first primary takes the factor's sign, the term
    multiplies it in and then each further letter, and a '^' after the run
    takes its last primary as the base.  Parentheses nest at most NESTING deep.
    """

    def __init__(self, text: str, d: int):
        self.matches, self.d, self.depth = _TOKEN.finditer(text), d, 0
        self.ones = "123456789"[:d]  # the letters of one digit
        self.match, self.kind = None, _RUN
        self.take()

    def take(self) -> re.Match:
        """The next token's match, moving to the token after it; the end is never passed."""
        match = self.match
        if self.kind != _RUN and match.lastindex == _RUN:  # the run after its sign
            self.kind = _RUN
        elif self.kind != _END:
            self.match = after = next(self.matches)
            sign = after[_SIGN]  # a run's sign comes before the run
            self.kind = after.lastindex if sign is None else _MINUS if sign == "-" else _PLUS
        return match

    def expr(self) -> dict:
        terms, negate = {}, False
        while True:
            for word, coeff in self.term().items():
                _add_term(terms, word, 0j + -coeff if negate else coeff)  # 0j + -c is _negated's
            if self.kind not in (_PLUS, _MINUS):
                return terms
            negate = self.kind == _MINUS
            self.take()

    def term(self) -> dict:
        """The product of the factors from the left, each factor then times each later letter of its run."""
        terms = None
        while True:
            negate = False
            while self.kind in (_PLUS, _MINUS):
                negate ^= self.kind == _MINUS
                self.take()
            kind, match, letters = self.kind, self.take(), ()
            if kind == _RUN:
                base, letters = self.run(match)
                if letters and self.kind in (_POWER, _EXPONENT):  # the power's base is the run's last letter
                    base = _negated(base) if negate else base
                    terms = _times_letters(base if terms is None else _product(terms, base), letters[:-1])
                    base, letters, negate = {letters[-1:]: 1 + 0j}, (), False
            elif kind == _OPEN:
                self.depth += 1
                if self.depth > NESTING:
                    raise PolyParseError(f"parentheses nested deeper than {NESTING}", _at(match))
                base = self.expr()
                kind, closer = self.kind, self.take()
                if kind != _CLOSE:
                    raise PolyParseError("expected ')'", _at(closer))
                self.depth -= 1
            else:
                found = "end of input" if kind == _END else _lexeme(match)
                raise PolyParseError(f"expected a number, variable, or '(' but found {found!r}", _at(match))
            while self.kind in (_POWER, _EXPONENT):
                base = _power(base, self.exponent())
            base = _negated(base) if negate else base
            terms = _times_letters(base if terms is None else _product(terms, base), letters)
            if self.kind != _TIMES:
                return terms
            self.take()

    def run(self, match: re.Match) -> tuple[dict, tuple[int, ...]]:
        """The term map of a run's first primary, and the letters after it, all checked against 1..d.

        The literal is one scalar sum from 0j of its parts, complex(value) or complex(value * 1j), each signed as
        factor() signs it and added as expr() adds a term: a sum from 0j is never -0.0, so the term maps' 0j + c,
        their dropped zero part and their restart from 0j after an exact zero change no bit."""
        re_sign, re_part, im_sign, im_part, literal, after, alone = match.groups()[2:9]
        digits = after or alone or ""
        joined = digits.replace("*z", "")
        if len(digits) == 3 * len(joined) - 2 and not joined.strip(self.ones):  # each letter one digit in 1..d
            letters = tuple(joined.encode().translate(_DIGIT_VALUES))
        else:
            letters = tuple(map(int, digits.split("*z"))) if digits else ()
            if letters and not 1 <= min(letters) <= max(letters) <= self.d:
                at = [i for i, char in enumerate(match[0], match.start()) if char == "z"]
                k = next(k for k, j in enumerate(letters) if not 1 <= j <= self.d)  # the first letter out of range
                raise PolyParseError(f"variable z{letters[k]} outside z1..z{self.d}", at[k])
        if alone is not None:
            return {letters[:1]: 1 + 0j}, letters[1:]
        if re_part is None:
            value = float(literal.removesuffix("i") or "1")
            total = 0j + complex(value * 1j if literal[-1] == "i" else value)
        else:
            real, imag = complex(float(re_part)), complex(float(im_part) * 1j)
            total = (0j + (-real if re_sign == "-" else real)) + (-imag if im_sign == "-" else imag)
        return ({(): total} if total != 0 else {}), letters

    def exponent(self) -> int:
        """The exponent after '^': the power token's own number, or else the next token, which is no exponent."""
        power = self.take()
        if power.lastindex == _POWER:
            kind, after = self.kind, self.take()
            message = "negative exponent" if kind == _MINUS else "exponent must be a nonnegative integer"
            raise PolyParseError(message, _at(after))
        lexeme = power[_EXPONENT]
        if not lexeme.isdigit():
            raise PolyParseError("exponent must be a nonnegative integer", power.start(_EXPONENT))
        digits = lexeme.lstrip("0")  # more digits than WORD_BUDGET has fail _power's charge: fail before int()
        if len(digits) > len(str(WORD_BUDGET)):
            raise BudgetExceededError(f"an exponent of {len(digits)} digits exceeds the budget {WORD_BUDGET}")
        return int(digits or "0")


def parse(text: str, d: int) -> FreePolynomial:
    """Parse an expression in z1..zd into a FreePolynomial.

    Supported syntax: complex literals (2, 1.5, 2i, 1+2i), the operators
    + - *, integer powers ^k (k-fold product of the base, so (z1*z2)^2 is
    z1*z2*z1*z2), and parentheses.  Errors carry the offending position; a
    character that starts no token is reported before any other error.
    """
    d = _checked_size(d, "d")
    reader = _Reader(text, d)
    try:
        terms = reader.expr()
        if reader.kind != _END:
            at = reader.match
            raise PolyParseError(f"unexpected {_lexeme(at)!r}; an operator is required between factors", _at(at))
    except (PolyParseError, BudgetExceededError):
        error = _lexical_error(text)
        if error is not None:
            raise error from None
        raise
    return FreePolynomial._trusted(d, terms)  # run() has range-checked every letter


def _parse_finite(text: str, d: int, source: str) -> FreePolynomial:
    """parse(text, d) of a polynomial from outside; a NaN or inf coefficient is rejected, naming source and word."""
    p = parse(text, d)
    for word, coeff in p.terms.items():
        if not cmath.isfinite(coeff):
            monomial = "*".join(f"z{letter}" for letter in word) or "1"
            raise ValueError(f"{source} coefficient of {monomial} must be finite, got {coeff}")
    return p


def _format_real(x: float) -> str:
    return repr(float(x))


def _term_text(word: tuple[int, ...], coeff: complex) -> tuple[int, str]:
    """Return (sign, body) so that joining '[-]body [+-] body ...' reparses."""
    body = "*".join(f"z{letter}" for letter in word)
    re, im = coeff.real, coeff.imag
    if im == 0:
        sign = -1 if re < 0 else 1
        mag = abs(re)
        if body and mag == 1:
            return sign, body
        text = _format_real(mag)
        return sign, f"{text}*{body}" if body else text
    if re == 0:
        sign = -1 if im < 0 else 1
        text = f"{_format_real(abs(im))}i"
        return sign, f"{text}*{body}" if body else text
    joiner = "+" if im >= 0 else "-"
    text = f"({_format_real(re)}{joiner}{_format_real(abs(im))}i)"
    return 1, f"{text}*{body}" if body else text


def format_poly(p: FreePolynomial) -> str:
    """Canonical text form, length-lex term order; parse(format_poly(p)) == p for finite coefficients."""
    items = p.sorted_terms()
    if not items:
        return "0"
    chunks = []
    for index, (word, coeff) in enumerate(items):
        sign, body = _term_text(word, coeff)
        if index == 0:
            chunks.append(f"-{body}" if sign < 0 else body)
        else:
            chunks.append(f" {'-' if sign < 0 else '+'} {body}")
    return "".join(chunks)


def to_triples(p: FreePolynomial) -> list[tuple[str, float, float]]:
    """Length-lex sorted (word digit string, re, im) triples."""
    return [(_word_text(w, p.d), c.real, c.imag) for w, c in p.sorted_terms()]
