"""Free-group words encoded as case-sensitive strings.

A word over a free group is a plain Python string: a lowercase letter is a
generator, the matching uppercase letter is its inverse, and the empty string
is the identity.  Every function here returns freely reduced words, so strings
can be compared directly for equality in the group.

Reduction happens once, at the trust boundary: ``reduce_word``, ``multiply``,
``evaluate`` and ``parse_word`` reduce whatever they are given, and so do the
constructors built on them (``solver.Equation``, ``solver.verify_solution``,
``autf2.AutF2``).  Past that boundary the word functions trust their input:
``power``, ``cyclic_reduce``, ``primitive_root``, ``kth_root`` and
``conjugating_word`` assume freely reduced words and peel them by index
without reducing again, and ``pair_rank`` reads the rank of a pair of reduced
words off whether they commute.  Rotations of a cyclic core are found in
the doubled core, by one ``find`` or as its least window.

Two single-character letters are reserved as equation variables: ``x`` and
``y``.  Coefficient alphabets may use any other lowercase letters; the
:class:`Alphabet` container itself is generic (the variable letters are only
rejected where coefficients are meaningful, i.e. at the equation layer).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from string import ascii_lowercase, ascii_uppercase
from typing import Iterable, Iterator

VARIABLE_LETTERS = ("x", "y")


class WordError(ValueError):
    """A malformed word, letter, or alphabet."""


class ParseError(WordError):
    """Unparseable word text."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of single-character lowercase generator names.

    Letters are normalised to sorted order so that every canonical artifact
    built downstream (ShortLex enumeration, graph labellings, subgroup bases)
    is independent of the order the caller supplied.
    """

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        letters = tuple(sorted(self.letters))
        if not letters:
            raise WordError("alphabet must contain at least one letter")
        if len(set(letters)) != len(letters):
            raise WordError(f"duplicate letters in alphabet: {letters!r}")
        for c in letters:
            if len(c) != 1 or not ("a" <= c <= "z"):
                raise WordError(f"alphabet letters must be single lowercase ascii, got {c!r}")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    def __contains__(self, letter: str) -> bool:
        return letter.lower() in self.letters

    def __str__(self) -> str:
        return "".join(self.letters)

    def signed_letters(self) -> tuple[str, ...]:
        """All letters and inverses, in rank order: a, A, b, B, ..."""
        out = []
        for c in self.letters:
            out.append(c)
            out.append(c.upper())
        return tuple(out)

    def check_word(self, w: str) -> str:
        for c in w:
            if c.lower() not in self.letters:
                raise WordError(f"letter {c!r} is not in alphabet {self}")
        return w


VARIABLES = Alphabet(VARIABLE_LETTERS)


# Respells the letters a, A, b, B, ... by characters in increasing order.
_SHORTLEX_RANK = str.maketrans("".join(c + c.upper() for c in ascii_lowercase),
                               ascii_uppercase + ascii_lowercase)


def shortlex_key(w: str):
    """ShortLex sort key: length, then letter ranks (a < A < b < B < ...)."""
    return (len(w), w.translate(_SHORTLEX_RANK))


def pair_key(pair: tuple[str, str]):
    """ShortLex key for a pair: total length, then componentwise ShortLex."""
    return (len(pair[0]) + len(pair[1]), shortlex_key(pair[0]), shortlex_key(pair[1]))


def reduce_word(w: str) -> str:
    """Freely reduce, cancelling adjacent inverse letters until none remain."""
    out: list[str] = []
    for c in w:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def invert(w: str) -> str:
    """The group inverse: reverse the string and flip every letter's case."""
    return w[::-1].swapcase()


def multiply(*words: str) -> str:
    """Product of words, freely reduced."""
    return reduce_word("".join(words))


def power(w: str, n: int) -> str:
    """``w^n`` for a reduced ``w``: with ``w = c^-1 . core . c`` peeled once,
    ``w^n = c^-1 . core^n . c`` needs no reduction."""
    if n == 0:
        return ""
    if n < 0:
        w, n = invert(w), -n
    i = _conjugator_length(w)
    return w[:i] + w[i:len(w) - i] * n + w[len(w) - i:]


def conjugate(w: str, g: str) -> str:
    """g^-1 w g."""
    return reduce_word(invert(g) + w + g)


def commutator(g: str, h: str) -> str:
    """[g, h] = g^-1 h^-1 g h."""
    return reduce_word(invert(g) + invert(h) + g + h)


def _conjugator_length(w: str) -> int:
    """The length of ``c`` in the split ``w = c^-1 . core . c`` of a reduced
    word, with the core cyclically reduced."""
    n = len(w)
    i = 0
    while 2 * i + 1 < n and w[i] == w[n - 1 - i].swapcase():
        i += 1
    return i


def cyclic_reduce(w: str) -> tuple[str, str]:
    """Split a reduced ``w`` as ``c^-1 . core . c`` with the core cyclically
    reduced.

    Returns ``(core, c)``; e.g. ``cyclic_reduce("Aba") == ("b", "a")``.
    """
    i = _conjugator_length(w)
    return w[i:len(w) - i], w[len(w) - i:]


def cyclic_core(w: str) -> str:
    return cyclic_reduce(w)[0]


def cyclic_length(w: str) -> int:
    return len(cyclic_core(w))


def cyclic_normal_form(w: str) -> str:
    """Canonical representative of the cyclic word: the ShortLex-least rotation
    of the cyclic core, the least window of the translated doubled core."""
    core = cyclic_core(w)
    ranked = (core + core).translate(_SHORTLEX_RANK)
    i = min(range(len(core)), key=lambda i: ranked[i:i + len(core)], default=0)
    return core[i:] + core[:i]


def conjugating_word(v: str, w: str) -> str | None:
    """A word ``h`` with ``h^-1 v h == w``, or None if not conjugate.

    Found by matching rotations of the cyclic cores: if ``core(v)`` rotated by
    ``i`` equals ``core(w)``, then ``h = cv^-1 . core(v)[:i] . cw`` works,
    where ``cv, cw`` are the peeling conjugators of the two words; the least
    ``i`` is where ``core(w)`` first occurs in the doubled ``core(v)``.
    """
    core_v, cv = cyclic_reduce(v)
    core_w, cw = cyclic_reduce(w)
    if len(core_v) != len(core_w):
        return None
    i = (core_v + core_v).find(core_w)
    if i < 0:
        return None
    return multiply(invert(cv), core_v[:i], cw)


def pair_rank(g1: str, g2: str) -> int:
    """The rank of the subgroup ``<g1, g2>`` for reduced words.

    By Nielsen–Schreier the subgroup is free, so its rank is 0 when both
    words are trivial, 1 when they commute, and 2 otherwise.
    """
    if not g1 and not g2:
        return 0
    return 1 if multiply(g1, g2) == multiply(g2, g1) else 2


def exponent_sum(w: str, letter: str) -> int:
    """Signed count of ``letter`` (a lowercase generator) in ``w``."""
    if len(letter) != 1 or not letter.islower():
        raise WordError(f"expected a lowercase generator letter, got {letter!r}")
    return w.count(letter) - w.count(letter.upper())


def primitive_root(w: str) -> tuple[str, int]:
    """Write a reduced ``w = r^e`` with ``r`` not a proper power; returns
    ``(r, e)``.

    E.g. ``primitive_root("abab") == ("ab", 2)``.  The root of a cyclically
    non-reduced word is the matching conjugate of its core's root.
    """
    if not w:
        raise WordError("the identity has no primitive root")
    core, conj = cyclic_reduce(w)
    p = (core + core).find(core, 1)  # the least period, a divisor of len(core)
    return w[:len(conj)] + core[:p] + conj, len(core) // p


def kth_root(w: str, k: int) -> str | None:
    """The unique ``g`` with ``g^k == w`` for a reduced ``w`` (``k`` non-zero),
    or None.  With ``w = c^-1 h c`` peeled once, any root is ``c^-1 r c`` with
    ``r^|k| == h``, so one period test on the peeled core ``h`` decides it."""
    if k < 0:
        w, k = invert(w), -k
    core, conj = cyclic_reduce(w)
    period, rest = divmod(len(core), k)
    if rest or core[:period] * k != core:
        return None
    return w[:len(conj)] + core[:period] + conj


def evaluate(word: str, gx: str, gy: str) -> str:
    """Apply the substitution x -> gx, y -> gy; other letters map to themselves.

    This is the homomorphism determined by the images, so
    ``evaluate(multiply(v, w), gx, gy) == multiply(evaluate(v, ...), evaluate(w, ...))``.
    """
    gx_inv, gy_inv = invert(gx), invert(gy)
    parts = []
    for c in word:
        if c == "x":
            parts.append(gx)
        elif c == "X":
            parts.append(gx_inv)
        elif c == "y":
            parts.append(gy)
        elif c == "Y":
            parts.append(gy_inv)
        else:
            parts.append(c)
    return reduce_word("".join(parts))


def words_upto(alphabet: Alphabet, max_len: int) -> Iterator[str]:
    """All freely reduced words of length at most ``max_len``, ShortLex order.

    The words of each length extend every word one shorter by every signed
    letter in rank order except the inverse of its last letter, which keeps
    the order ShortLex."""
    signed = alphabet.signed_letters()
    follow = {"": signed, **{c: tuple(d for d in signed if d != c.swapcase()) for c in signed}}
    level = [""]
    for n in range(max_len + 1):
        if n:
            level = [w + c for w in level for c in follow[w[-1:]]]
        yield from level


def count_words_upto(alphabet: Alphabet, max_len: int) -> int:
    k = 2 * len(alphabet.letters)
    total = 1
    for n in range(1, max_len + 1):
        total += k * (k - 1) ** (n - 1)
    return total


def format_word(w: str) -> str:
    """Canonical display form; the identity prints as ``1``."""
    return w if w else "1"


_EXPONENT = re.compile(r"-?[0-9]+")


class _WordParser:
    """Recursive-descent parser for the CLI word grammar.

    word := term* ; term := atom ['^' int] ;
    atom := letter | '1' | '[' word ',' word ']' | '(' word ')'
    """

    def __init__(self, text: str, allowed: Iterable[str]):
        self.text = text
        self.pos = 0
        self.allowed = frozenset(allowed)

    def fail(self, message: str) -> ParseError:
        return ParseError(f"{message} at position {self.pos} in {self.text!r}")

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        c = self.peek()
        if c is None:
            raise self.fail("unexpected end of input")
        self.pos += 1
        return c

    def expect(self, c: str) -> None:
        got = self.take()
        if got != c:
            self.pos -= 1
            raise self.fail(f"expected {c!r}, found {got!r}")

    def parse(self) -> str:
        w = self.word(stops="")
        if self.peek() is not None:
            raise self.fail(f"unexpected {self.peek()!r}")
        return w

    def word(self, stops: str) -> str:
        parts = []
        while True:
            c = self.peek()
            if c is None or c in stops:
                break
            parts.append(self.term(stops))
        return multiply(*parts)

    def term(self, stops: str) -> str:
        atom = self.atom(stops)
        if self.peek() == "^":
            self.take()
            return power(atom, self.integer())
        return atom

    def atom(self, stops: str) -> str:
        c = self.take()
        if c == "[":
            left = self.word(stops=",")
            self.expect(",")
            right = self.word(stops="]")
            self.expect("]")
            return commutator(left, right)
        if c == "(":
            inner = self.word(stops=")")
            self.expect(")")
            return inner
        if c == "1":
            return ""
        if c.isalpha():
            if c.lower() not in self.allowed:
                self.pos -= 1
                raise self.fail(f"letter {c!r} is not allowed here")
            return c
        self.pos -= 1
        raise self.fail(f"unexpected {c!r}")

    def integer(self) -> int:
        """A signed exponent: whitespace may come before it, not inside it."""
        self.peek()
        m = _EXPONENT.match(self.text, self.pos)
        if m is None:
            raise self.fail("expected an integer exponent")
        self.pos = m.end()
        return int(m.group())


def parse_word(text: str, allowed: Iterable[str]) -> str:
    """Parse word text over the given lowercase letters into a reduced word.

    Supports juxtaposition, inverses by case, ``^n`` powers (negative allowed),
    ``(...)`` grouping, ``[g, h]`` commutators, and ``1`` for the identity.
    """
    return _WordParser(text, allowed).parse()
