"""Free words, sparse free noncommutative polynomials, and NCFunction, the evaluation protocol of every nc function.

The variables z1, ..., zd do not commute: z1*z2 and z2*z1 are distinct
monomials.  Words over the alphabet {1, ..., d} index the monomials and are
ordered length-lexicographically (shorter first, then lexicographic with
1 < 2 < ... < d).  Coefficients are complex doubles; only exact zeros are
dropped, nothing is epsilon-pruned.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

WORD_BUDGET = 10**6  # the words a dense walk_levels or words_of_size visits, the term pairs a _product forms
# stacks stepped or evaluated together take at most this many bytes: larger walk
# levels, the probe's point pools and its target's values come out in chunks
BATCH_BYTES = 64 * 1024


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


@dataclass(frozen=True)
class Word:
    """A finite word over {1, ..., d}; the empty word acts as the unit."""

    letters: tuple[int, ...]
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        letters = tuple(int(letter) for letter in self.letters)
        object.__setattr__(self, "letters", letters)
        for letter in letters:
            if not 1 <= letter <= self.d:
                raise ValueError(f"letter {letter} outside alphabet 1..{self.d}")

    @classmethod
    def _trusted(cls, letters: tuple[int, ...], d: int) -> "Word":
        """The Word of a tuple of ints already known to lie in 1..d, built without re-validation."""
        word = object.__new__(cls)
        fields = word.__dict__
        fields["letters"] = letters
        fields["d"] = d
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.d != self.d:
            raise ValueError(f"cannot concatenate words over different alphabets ({self.d} vs {other.d})")
        return Word(self.letters + other.letters, self.d)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), self.letters)

    def to_string(self) -> str:
        # digit string for d <= 9, dash-separated beyond that
        if self.d <= 9:
            return "".join(str(letter) for letter in self.letters)
        return "-".join(str(letter) for letter in self.letters)

    @classmethod
    def from_string(cls, text: str, d: int) -> "Word":
        """The word of a to_string form, ASCII digits or dash-separated numbers; past d = 9 no dash means one letter."""
        text = text.strip()
        if not re.fullmatch(r"([0-9]+(-[0-9]+)*)?", text):
            raise ValueError(f"word {text!r} is not a string of digits 0-9 or of dash-separated numbers")
        return cls(tuple(int(part) for part in (text.split("-") if "-" in text or (d > 9 and text) else text)), d)


def words_of_size(d: int, k: int) -> Iterator[Word]:
    """All words of size exactly k, in length-lex order; d, k and d^k <= WORD_BUDGET are checked at the call."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if k < 0:
        raise ValueError(f"word size k must be >= 0, got {k}")
    if d**k > WORD_BUDGET:
        raise BudgetExceededError(f"{d}^{k} words exceed the budget {WORD_BUDGET}")
    return (Word._trusted(letters, d) for letters in itertools.product(range(1, d + 1), repeat=k))


def walk_levels(d: int, size: int, *columns, words=None) -> Iterator[tuple[object, tuple]]:
    """(k, stacks) for the words of each size k <= size, one stack per column (root, step).

    value(empty) = root, and step(stack, j) stacks the words w j of a stack of
    words w, so the children come in (parent, letter) order: length-lex.  A
    level whose stacks pass BATCH_BYTES comes out as consecutive chunks, each
    walked on before the next, so memory stays bounded.  Given ``words``
    (letter tuples), a level keeps only their prefixes, stepped one stack per
    letter, and the walk yields (prefixes, stacks): the rows' letter tuples for k.
    Without ``words`` it visits d^0 + ... + d^size words; more than WORD_BUDGET raise BudgetExceededError at the call.
    """
    if words is None and (size + 1 if d == 1 else (d ** (size + 1) - 1) // (d - 1)) > WORD_BUDGET:
        raise BudgetExceededError(f"{d}^0 + ... + {d}^{size} words exceed the budget {WORD_BUDGET}")
    return _walk(d, size, columns, None if words is None else {w[:i] for w in words for i in range(len(w) + 1)})


def _walk(d: int, size: int, columns, keep) -> Iterator[tuple[object, tuple]]:
    """walk_levels over the prefixes in keep, or over all words if keep is None."""
    todo = [(0, None if keep is None else [()], tuple(root for root, _ in columns))] if size >= 0 else []
    while todo:
        k, prefixes, stacks = todo.pop()
        yield (k if prefixes is None else prefixes), stacks
        if k == size:
            continue
        if keep is None:
            kids = [np.stack([step(s, j) for j in range(1, d + 1)], axis=1) for s, (_, step) in zip(stacks, columns)]
            kids = [kid.reshape(-1, *kid.shape[2:]) for kid in kids]
        else:
            parents = [[i for i, p in enumerate(prefixes) if p + (j,) in keep] for j in range(1, d + 1)]
            born = [prefixes[i] + (j,) for j, sel in enumerate(parents, 1) for i in sel]
            if not born:
                continue
            order = sorted(range(len(born)), key=born.__getitem__)  # stepped letter by letter, kept by (parent, letter)
            kids = []
            for s, (_, step) in zip(stacks, columns):
                parts = [step(s if len(sel) == len(prefixes) else s[sel], j) for j, sel in enumerate(parents, 1) if sel]
                kids.append(np.concatenate(parts)[order])
            prefixes = [born[i] for i in order]
        count = len(kids[0])
        chunk = max(1, BATCH_BYTES * count // sum(kid.nbytes for kid in kids))
        for rows in reversed([slice(i, i + chunk) for i in range(0, count, chunk)]):
            todo.append((k + 1, None if prefixes is None else prefixes[rows], tuple(kid[rows] for kid in kids)))


class NCFunction:
    """An nc function of d variables, evaluated at level-n points (d-tuples of n x n matrices).

    A subclass defines ``d`` and ``_values(xs) -> (values, errors)`` on a
    validated (B, d, n, n) stack of points: values[i] is the value at point i
    and ``errors`` maps the index of each failed sample to the error it met.
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
        it (``OperatorBall.norms_at``).  A resolvent guard may take it as a
        certificate in place of a condition number; no value or failure changes.
        """
        from .mattuple import point_stack  # mattuple builds on this module

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


def _negated(terms: dict) -> dict:
    """-terms as 0j + -c: 0j - c would keep the sign bit of a NaN coefficient."""
    return {w: 0j + -c for w, c in terms.items()}


@dataclass(frozen=True, slots=True)
class FreePolynomial(NCFunction):
    """Sparse formal sum  sum_w c_w z^w  in d noncommuting variables.

    ``terms`` maps each word to its nonzero coefficient, as a read-only view.
    """

    d: int
    terms: Mapping[Word, complex] | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        d = int(self.d)
        clean: dict[Word, complex] = {}
        for key, value in (self.terms or {}).items():
            word = key if isinstance(key, Word) else Word(tuple(key), d)
            if word.d != d:
                raise ValueError(f"word over alphabet 1..{word.d} in a polynomial with d={d}")
            _add_term(clean, word, complex(value))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def _trusted(cls, d: int, terms: Mapping[tuple[int, ...], complex]) -> "FreePolynomial":
        """FreePolynomial(d, terms) for distinct letter tuples known to lie in 1..d, unchecked: one Word per term."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "d", d)
        clean = {Word._trusted(w, d): 0j + c for w, c in terms.items() if c != 0}
        object.__setattr__(poly, "terms", MappingProxyType(clean))
        return poly

    def _letters(self) -> dict[tuple[int, ...], complex]:
        """The terms keyed by letter tuples, the form the term-map helpers take."""
        return {w.letters: c for w, c in self.terms.items()}

    @property
    def degree(self) -> int:
        """Largest word size present, -1 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=-1)

    def coefficient(self, word) -> complex:
        if not isinstance(word, Word):
            word = Word(tuple(word), self.d)
        return self.terms.get(word, 0j)

    def sorted_terms(self) -> list[tuple[Word, complex]]:
        return sorted(self.terms.items(), key=lambda item: item[0].sort_key())

    def _values(self, xs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        """sum_w c_w x^w at each point of a stack, every x^w from one walk over the terms' prefixes; never fails."""
        from .mattuple import _word_values  # mattuple builds on this module

        return self._term_sum(_word_values(xs, [w.letters for w in self.terms]), (len(xs), *xs.shape[-2:])), {}

    def _term_sum(self, values: Mapping[tuple[int, ...], np.ndarray], shape) -> np.ndarray:
        """sum_w c_w values[w.letters], added to zeros of the shape in sorted_terms() order."""
        out = np.zeros(shape, dtype=complex)
        for word, coeff in self.sorted_terms():
            out = out + coeff * values[word.letters]
        return out

    @classmethod
    def zero(cls, d: int) -> "FreePolynomial":
        return cls(d)

    @classmethod
    def constant(cls, d: int, value: complex) -> "FreePolynomial":
        return cls(d, {Word((), d): value})

    @classmethod
    def generator(cls, d: int, j: int) -> "FreePolynomial":
        """The variable zj as a polynomial."""
        return cls(d, {Word((j,), d): 1.0})

    @classmethod
    def monomial(cls, word: Word, coeff: complex = 1.0) -> "FreePolynomial":
        return cls(word.d, {word: coeff})

    def _require_same_d(self, other: "FreePolynomial"):
        if other.d != self.d:
            raise ValueError(f"dimension mismatch: d={self.d} vs d={other.d}")

    def __add__(self, other):
        if not isinstance(other, FreePolynomial):
            return NotImplemented
        self._require_same_d(other)
        out = self._letters()
        for word, coeff in other.terms.items():
            _add_term(out, word.letters, coeff)
        return FreePolynomial._trusted(self.d, out)

    def __sub__(self, other):
        if not isinstance(other, FreePolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FreePolynomial._trusted(self.d, _negated(self._letters()))

    def __mul__(self, other):
        if isinstance(other, FreePolynomial):
            self._require_same_d(other)
            return FreePolynomial._trusted(self.d, _product(self._letters(), other._letters()))
        if isinstance(other, (int, float, complex)):
            # complex() makes a numpy scalar's product a Python complex; an inf * s = NaN stays silent, as in Python
            with np.errstate(invalid="ignore", over="ignore"):
                return FreePolynomial._trusted(self.d, {w.letters: complex(c * other) for w, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        terms = functools.reduce(_product, itertools.repeat(self._letters(), k), {(): 1 + 0j})  # the parser's fold
        return FreePolynomial._trusted(self.d, terms)

    def __eq__(self, other):
        if not isinstance(other, FreePolynomial):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.d, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"FreePolynomial(d={self.d}, {format_poly(self)!r})"


def homogeneous_component(p: FreePolynomial, k: int) -> FreePolynomial:
    """The part of p supported on words of size exactly k."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return FreePolynomial(p.d, {w: c for w, c in p.terms.items() if len(w) == k})


def cesaro_sum(source, n: int, d: int | None = None) -> FreePolynomial:
    """Weighted partial sum  sum_{k<n} (1 - k/n) * (degree-k part).

    ``source`` supplies the coefficients: a FreePolynomial, a Realization
    (through its Taylor polynomial of size < n), or a callable word -> complex
    (the last needs ``d``).  For non-polynomial sources all d^k words with
    k < n are enumerated, so n is limited by the word budget.
    """
    from .realize import Realization, taylor_polynomial  # realize builds on this module

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if isinstance(source, Realization):
        source = taylor_polynomial(source, n)
    elif not isinstance(source, FreePolynomial):
        if not callable(source):
            raise TypeError(f"cannot read coefficients from {type(source).__name__}")
        if d is None:
            raise ValueError("a callable coefficient source needs an explicit d")
        if (n if d == 1 else (d**n - 1) // (d - 1)) > WORD_BUDGET:  # d^0 + ... + d^(n-1), as a dense walk counts
            raise BudgetExceededError(f"{d}^0 + ... + {d}^{n - 1} words exceed the budget {WORD_BUDGET}")
        source = FreePolynomial(d, {w: source(w) for k in range(n) for w in words_of_size(d, k)})
    return FreePolynomial(source.d, {w: (1.0 - len(w) / n) * c for w, c in source.terms.items() if len(w) < n})


def left_divide(p: FreePolynomial, n: int) -> dict[Word, FreePolynomial]:
    """Quotients f_w of the exact division  p = sum_{|w|=n} z^w f_w.

    Requires every word of p to have size >= n; the returned map covers all
    d^n words of size n in insertion order equal to length-lex order, and
    the absent heads share one zero quotient.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for word in p.terms:
        if len(word) < n:
            raise ValueError(f"word {word.to_string()!r} of size {len(word)} < {n}: p is not left-divisible")
    heads, quotients, zero = words_of_size(p.d, n), _left_quotients(p, n), FreePolynomial.zero(p.d)
    return {head: quotients.get(head.letters, zero) for head in heads}


def _left_quotients(p: FreePolynomial, n: int) -> dict[tuple[int, ...], FreePolynomial]:
    """The nonzero quotients f_w of the part of p of size >= n, keyed by the letters of w in length-lex order.

    Each quotient keeps its terms in the order of p's terms."""
    pieces: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for word, coeff in p.terms.items():
        if len(word) >= n:
            pieces.setdefault(word.letters[:n], {})[word.letters[n:]] = coeff
    return {head: FreePolynomial._trusted(p.d, pieces[head]) for head in sorted(pieces)}


def compose(p: FreePolynomial, inner) -> FreePolynomial:
    """Substitute inner[j-1] for zj in p; the inner polynomials share one d."""
    inner = list(inner)
    if len(inner) != p.d:
        raise ValueError(f"need {p.d} inner polynomials, got {len(inner)}")
    dims = {q.d for q in inner}
    if len(dims) != 1:
        raise ValueError(f"inner polynomials disagree on d: {sorted(dims)}")
    letters, out = [q._letters() for q in inner], {}
    for word, coeff in p.terms.items():
        # no partial sum has a -0.0 part, so adding c * coeff adds what coeff * prod stored, 0j + c * coeff
        for w, c in functools.reduce(_product, (letters[j - 1] for j in word.letters), {(): 1 + 0j}).items():
            _add_term(out, w, c * coeff)
    return FreePolynomial._trusted(dims.pop(), out)


# ---------------------------------------------------------------------------
# parsing and formatting


_TOKEN = re.compile(
    r"(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?i?)|(?P<var>z[0-9]*)|(?P<op>[-+*^()i])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, object, int, str]]:
    """(kind, value, position, lexeme) tokens, whitespace skipped, then ("end", None, len(text), "").

    Digits are ASCII only.  A number has at most one decimal point, an
    optional exponent as repr() of a float writes it, and an optional 'i'
    suffix that makes it an "imag" token.
    """
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, lexeme, at = match.lastgroup, match.group(), match.start()
        if kind == "number":
            tokens.append(("imag" if lexeme.endswith("i") else "number", float(lexeme.removesuffix("i")), at, lexeme))
        elif kind == "var" and lexeme != "z":
            tokens.append(("var", int(lexeme[1:]), at, lexeme))
        elif kind == "op":
            tokens.append(("imag", 1.0, at, lexeme) if lexeme == "i" else (lexeme, lexeme, at, lexeme))
        else:  # a bare 'z', a lone '.', or any other character
            errors = {"z": "variable name must be z followed by an index", ".": "malformed number"}
            raise PolyParseError(errors.get(lexeme, f"unexpected character {lexeme!r}"), at)
    tokens.append(("end", None, len(text), ""))
    return tokens


class _Parser:
    """Recursive descent over the token stream, on {letters: coefficient} term maps.

    Grammar (the product sign is mandatory, juxtaposition is an error):

        expr    := term (('+' | '-') term)*
        term    := factor ('*' factor)*
        factor  := ('+' | '-')* primary ('^' exponent)*
        primary := number | number 'i' | 'i' | variable | '(' expr ')'

    Sums go through _add_term, products and powers through _product, signs
    through _negated, and the parse ends in FreePolynomial._trusted, as +, -, *
    and ** do: a parse has their bits and term order by construction.
    """

    def __init__(self, tokens, d: int):
        self.tokens = tokens[::-1]  # the next token is last, so pop() takes it
        self.d = d

    def peek(self) -> str:
        return self.tokens[-1][0]

    def parse(self) -> FreePolynomial:
        terms = self.expr()
        kind, _, position, lexeme = self.tokens.pop()
        if kind != "end":
            raise PolyParseError(f"unexpected {lexeme!r}; an operator is required between factors", position)
        return FreePolynomial._trusted(int(self.d), terms)  # primary() has range-checked every letter

    def expr(self) -> dict:
        terms = self.term()
        while self.peek() in ("+", "-"):
            rhs = self.term() if self.tokens.pop()[0] == "+" else _negated(self.term())
            for word, coeff in rhs.items():
                _add_term(terms, word, coeff)
        return terms

    def term(self) -> dict:
        terms = self.factor()
        while self.peek() == "*":
            self.tokens.pop()
            terms = _product(terms, self.factor())
        return terms

    def factor(self) -> dict:
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.tokens.pop()[0] == "-"
        terms = self.primary()
        while self.peek() == "^":
            self.tokens.pop()
            terms = functools.reduce(_product, itertools.repeat(terms, self.exponent()), {(): 1 + 0j})
        return _negated(terms) if negate else terms

    def primary(self) -> dict:
        kind, value, position, lexeme = self.tokens.pop()
        if kind in ("number", "imag"):
            return _add_term({}, (), complex(value if kind == "number" else value * 1j))
        if kind == "var":
            if not 1 <= value <= self.d:
                raise PolyParseError(f"variable z{value} outside z1..z{self.d}", position)
            return {(value,): 1 + 0j}
        if kind == "(":
            terms = self.expr()
            closer = self.tokens.pop()
            if closer[0] != ")":
                raise PolyParseError("expected ')'", closer[2])
            return terms
        raise PolyParseError(f"expected a number, variable, or '(' but found {lexeme or 'end of input'!r}", position)

    def exponent(self) -> int:
        kind, value, position, lexeme = self.tokens.pop()
        if kind == "-":
            raise PolyParseError("negative exponent", position)
        if kind != "number" or not lexeme.isdigit():
            raise PolyParseError("exponent must be a nonnegative integer", position)
        return int(lexeme)


def parse(text: str, d: int) -> FreePolynomial:
    """Parse an expression in z1..zd into a FreePolynomial.

    Supported syntax: complex literals (2, 1.5, 2i, 1+2i), the operators
    + - *, integer powers ^k (k-fold product of the base, so (z1*z2)^2 is
    z1*z2*z1*z2), and parentheses.  Errors carry the offending position.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return _Parser(_tokenize(text), d).parse()


def _parse_finite(text: str, d: int, source: str) -> FreePolynomial:
    """parse(text, d) of a polynomial from outside; a NaN or inf coefficient is rejected, naming source and word."""
    p = parse(text, d)
    for word, coeff in p.terms.items():
        if not np.isfinite(coeff):
            monomial = "*".join(f"z{letter}" for letter in word.letters) or "1"
            raise ValueError(f"{source} coefficient of {monomial} must be finite, got {coeff}")
    return p


def _format_real(x: float) -> str:
    return repr(float(x))


def _term_text(word: Word, coeff: complex) -> tuple[int, str]:
    """Return (sign, body) so that joining '[-]body [+-] body ...' reparses."""
    body = "*".join(f"z{letter}" for letter in word.letters)
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
    """Canonical text form, length-lex term order; parse(format_poly(p)) == p."""
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
    return [(w.to_string(), c.real, c.imag) for w, c in p.sorted_terms()]


def from_triples(triples, d: int) -> FreePolynomial:
    return FreePolynomial(d, {Word.from_string(w, d): complex(re, im) for w, re, im in triples})
