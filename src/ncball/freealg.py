"""Free words and sparse free noncommutative polynomials.

The variables z1, ..., zd do not commute: z1*z2 and z2*z1 are distinct
monomials.  Words over the alphabet {1, ..., d} index the monomials and are
ordered length-lexicographically (shorter first, then lexicographic with
1 < 2 < ... < d).  Coefficients are complex doubles; only exact zeros are
dropped, nothing is epsilon-pruned.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

WORD_BUDGET = 10**6
# stacks stepped or evaluated together take at most this many bytes: larger
# levels of the word walk, and the probe's point pools, come out in chunks
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
        text = text.strip()
        if not text:
            return cls((), d)
        if "-" in text:
            return cls(tuple(int(part) for part in text.split("-")), d)
        return cls(tuple(int(ch) for ch in text), d)


def words_of_size(d: int, k: int) -> Iterator[Word]:
    """All words of size exactly k, in length-lex order."""
    for letters in itertools.product(range(1, d + 1), repeat=k):
        yield Word(letters, d)


def walk_levels(d: int, size: int, *columns) -> Iterator[tuple[int, tuple]]:
    """(k, stacks) for the words of each size k <= size, one stack per column (root, step).

    value(empty) = root, and step(stack, j) stacks the words w j of a stack of
    words w, so the children come in (parent, letter) order: length-lex.  A
    level whose stacks pass BATCH_BYTES comes out as consecutive chunks, each
    walked on before the next, so memory stays bounded.
    """
    todo = [(0, tuple(root for root, _ in columns))] if size >= 0 else []
    while todo:
        k, stacks = todo.pop()
        yield k, stacks
        if k < size:
            kids = [np.stack([step(s, j) for j in range(1, d + 1)], axis=1) for s, (_, step) in zip(stacks, columns)]
            kids = [kid.reshape(-1, *kid.shape[2:]) for kid in kids]
            count = len(kids[0])
            chunk = max(1, BATCH_BYTES * count // sum(kid.nbytes for kid in kids))
            todo.extend((k + 1, tuple(kid[i : i + chunk] for kid in kids)) for i in reversed(range(0, count, chunk)))


@dataclass(frozen=True, slots=True)
class FreePolynomial:
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
            coeff = complex(value)
            if coeff != 0:
                clean[word] = clean.get(word, 0j) + coeff
                if clean[word] == 0:
                    del clean[word]
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", MappingProxyType(clean))

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

    def eval(self, x) -> np.ndarray:
        """sum_w c_w x^w at a MatrixTuple x, as an n x n matrix."""
        if self.d != x.d:
            raise ValueError(f"polynomial in d={self.d} variables evaluated at a {x.d}-tuple")
        return self.eval_batch(x.entries[None])[0][0]

    def eval_batch(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """sum_w c_w x^w at each point of a (B, d, n, n) stack: (values, failed).

        Terms are added in sorted_terms() order, each monomial folded letter by
        letter from I_n with the step of the word walk, so values[i] is bit for
        bit eval at point i.  A polynomial never fails: the mask is all False.
        """
        from .mattuple import _monomials, point_stack  # mattuple builds on this module

        xs = point_stack(xs, self.d)
        root, step = _monomials(xs)
        out = np.zeros(root.shape[1:], dtype=complex)
        for word, coeff in self.sorted_terms():
            out = out + coeff * functools.reduce(step, word.letters, root)[0]
        return out, np.zeros(len(xs), dtype=bool)

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
        out = dict(self.terms)
        for word, coeff in other.terms.items():
            out[word] = out.get(word, 0j) + coeff
        return FreePolynomial(self.d, out)

    def __sub__(self, other):
        if not isinstance(other, FreePolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FreePolynomial(self.d, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, FreePolynomial):
            self._require_same_d(other)
            out: dict[Word, complex] = {}
            for u, a in self.terms.items():
                for v, b in other.terms.items():
                    key = u * v
                    out[key] = out.get(key, 0j) + a * b
            return FreePolynomial(self.d, out)
        if isinstance(other, (int, float, complex)):
            return FreePolynomial(self.d, {w: c * other for w, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        out = FreePolynomial.constant(self.d, 1.0)
        for _ in range(k):
            out = out * self
        return out

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
        total = sum(d**k for k in range(n))
        if total > WORD_BUDGET:
            raise BudgetExceededError(f"{total} words with size < {n} exceed the budget {WORD_BUDGET}")
        source = FreePolynomial(d, {w: source(w) for k in range(n) for w in words_of_size(d, k)})
    return FreePolynomial(source.d, {w: (1.0 - len(w) / n) * c for w, c in source.terms.items() if len(w) < n})


def left_divide(p: FreePolynomial, n: int) -> dict[Word, FreePolynomial]:
    """Quotients f_w of the exact division  p = sum_{|w|=n} z^w f_w.

    Requires every word of p to have size >= n; the returned map covers all
    d^n words of size n (zero quotients included) in insertion order equal
    to length-lex order.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for word in p.terms:
        if len(word) < n:
            raise ValueError(f"word {word.to_string()!r} of size {len(word)} < {n}: p is not left-divisible")
    if p.d**n > WORD_BUDGET:
        raise BudgetExceededError(f"{p.d}^{n} quotient words exceed the budget {WORD_BUDGET}")
    pieces: dict[Word, dict[Word, complex]] = {w: {} for w in words_of_size(p.d, n)}
    for word, coeff in p.terms.items():
        head = Word(word.letters[:n], p.d)
        tail = Word(word.letters[n:], p.d)
        pieces[head][tail] = coeff
    return {w: FreePolynomial(p.d, body) for w, body in pieces.items()}


def compose(p: FreePolynomial, inner) -> FreePolynomial:
    """Substitute inner[j-1] for zj in p; the inner polynomials share one d."""
    inner = list(inner)
    if len(inner) != p.d:
        raise ValueError(f"need {p.d} inner polynomials, got {len(inner)}")
    dims = {q.d for q in inner}
    if len(dims) != 1:
        raise ValueError(f"inner polynomials disagree on d: {sorted(dims)}")
    e = dims.pop()
    out = FreePolynomial.zero(e)
    for word, coeff in p.terms.items():
        prod = FreePolynomial.constant(e, 1.0)
        for letter in word.letters:
            prod = prod * inner[letter - 1]
        out = out + coeff * prod
    return out


# ---------------------------------------------------------------------------
# parsing and formatting


def _tokenize(text: str) -> list[tuple[str, object, int, str]]:
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, i, ch))
            i += 1
            continue
        if ch == "i":
            tokens.append(("imag", 1.0, i, "i"))
            i += 1
            continue
        if ch == "z":
            start = i
            i += 1
            digits = ""
            while i < size and text[i].isdigit():
                digits += text[i]
                i += 1
            if not digits:
                raise PolyParseError("variable name must be z followed by an index", start)
            tokens.append(("var", int(digits), start, text[start:i]))
            continue
        if ch.isdigit() or ch == ".":
            start = i
            seen_dot = False
            while i < size and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    seen_dot = True
                i += 1
            lexeme = text[start:i]
            if lexeme == ".":
                raise PolyParseError("malformed number", start)
            # optional exponent part, as produced by repr() of a float
            if i < size and text[i] in "eE":
                j = i + 1
                if j < size and text[j] in "+-":
                    j += 1
                if j < size and text[j].isdigit():
                    while j < size and text[j].isdigit():
                        j += 1
                    lexeme = text[start:j]
                    i = j
            if i < size and text[i] == "i":
                i += 1
                tokens.append(("imag", float(lexeme), start, lexeme + "i"))
            else:
                tokens.append(("number", float(lexeme), start, lexeme))
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, size, ""))
    return tokens


class _Parser:
    """Recursive descent over the token stream.

    Grammar (the product sign is mandatory, juxtaposition is an error):

        expr    := term (('+' | '-') term)*
        term    := factor ('*' factor)*
        factor  := ('+' | '-')* primary ('^' exponent)*
        primary := number | number 'i' | 'i' | variable | '(' expr ')'
    """

    def __init__(self, tokens, d: int):
        self.tokens = tokens
        self.pos = 0
        self.d = d

    def peek(self):
        return self.tokens[self.pos]

    def pop(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self) -> FreePolynomial:
        poly = self.expr()
        kind, _, position, lexeme = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {lexeme!r}; an operator is required between factors", position)
        return poly

    def expr(self) -> FreePolynomial:
        # one dict for the whole sum; a word whose sum becomes exactly zero is
        # dropped and goes to the end if it comes back, as with repeated '+'
        terms = dict(self.term().terms)
        while self.peek()[0] in ("+", "-"):
            op = self.pop()[0]
            rhs = self.term() if op == "+" else -self.term()
            for word, coeff in rhs.terms.items():
                total = terms.get(word, 0j) + coeff
                if total != 0:
                    terms[word] = total
                else:
                    del terms[word]
        return FreePolynomial(self.d, terms)

    def term(self) -> FreePolynomial:
        poly = self.factor()
        while self.peek()[0] == "*":
            self.pop()
            poly = poly * self.factor()
        return poly

    def factor(self) -> FreePolynomial:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.pop()[0] == "-":
                sign = -sign
        poly = self.primary()
        while self.peek()[0] == "^":
            self.pop()
            poly = poly ** self.exponent()
        return poly if sign > 0 else -poly

    def primary(self) -> FreePolynomial:
        kind, value, position, lexeme = self.pop()
        if kind == "number":
            return FreePolynomial.constant(self.d, value)
        if kind == "imag":
            return FreePolynomial.constant(self.d, value * 1j)
        if kind == "var":
            if not 1 <= value <= self.d:
                raise PolyParseError(f"variable z{value} outside z1..z{self.d}", position)
            return FreePolynomial.generator(self.d, value)
        if kind == "(":
            poly = self.expr()
            closer = self.pop()
            if closer[0] != ")":
                raise PolyParseError("expected ')'", closer[2])
            return poly
        raise PolyParseError(f"expected a number, variable, or '(' but found {lexeme or 'end of input'!r}", position)

    def exponent(self) -> int:
        kind, value, position, lexeme = self.pop()
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
