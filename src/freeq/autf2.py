"""Automorphisms of the free group of rank two.

An automorphism is stored by its images of ``x`` and ``y``.  The public
constructor ``AutF2(ix, iy)`` validates that the image pair is a free basis
by Nielsen's test: ``(u, v)`` is a basis exactly when ``[u, v]`` is
conjugate to ``[x, y]`` or its inverse.

Validation happens once, where images come from outside.  The results of
``compose`` and ``inner`` are trusted without a basis check: a product of
automorphisms is an automorphism, and a conjugation is one by construction.

One action, ``_act``, reads image words letter by letter and substitutes
each letter's value from a per-letter table, cancelling reduced factors
only where two meet: it is ``apply`` and ``compose``, and it applies the
Nielsen moves, themselves automorphisms, to basis pairs by their images.

No automorphism is inverted after the fact: each is a product of moves
with tabled inverses (``TYPE1_INVERSES``, ``TYPE2_INVERSES``) and of
conjugations, and its inverse, the reversed product of theirs, is composed
alongside it.  Whitehead minimization reads every type-2 move's change in
cyclic length off one count of letter pairs (Lyndon–Schupp I.4) and applies
only the moves that shorten most.  The minimal level of a word's orbit,
built once per word and walked only as far as lookups need, keeps each
form's path with its inverse and decides which words share that orbit:
primitivity is the lookup of ``x``, and membership in the orbit of
``[x, y]`` the lookup of ``XYxy``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd, inf
from operator import add

from .words import (
    VARIABLES,
    WordError,
    commutator,
    conjugate,
    conjugating_word,
    cyclic_core,
    cyclic_normal_form,
    exponent_sum,
    invert,
    multiply,
    reduce_word,
    shortlex_key,
)

Pair = tuple[str, str]


class NotAnAutomorphism(WordError):
    """The given images of x and y do not form a free basis."""


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of budget before reaching a verdict."""


@dataclass(frozen=True)
class AutF2:
    """An automorphism of F(x, y), stored by its images of x and y.

    Construction reduces both images and raises :class:`NotAnAutomorphism`
    unless they form a free basis.  Automorphisms built by ``compose`` and
    ``inner`` skip that check.
    """

    image_x: str
    image_y: str

    def __post_init__(self) -> None:
        ix = reduce_word(VARIABLES.check_word(self.image_x))
        iy = reduce_word(VARIABLES.check_word(self.image_y))
        object.__setattr__(self, "image_x", ix)
        object.__setattr__(self, "image_y", iy)
        if not is_basis_pair(ix, iy):
            raise NotAnAutomorphism(f"({ix!r}, {iy!r}) is not a free basis")

    def apply(self, w: str) -> str:
        """The image of ``w``, a word in x and y, reduced or not."""
        try:
            return _act(_values((self.image_x, self.image_y)), (w,))[0]
        except KeyError:
            raise WordError(f"{w!r} is not a word in x and y") from None

    def compose(self, other: "AutF2") -> "AutF2":
        """self after other: ``(self.compose(other)).apply(w) == self.apply(other.apply(w))``."""
        return _trusted(*_act(_values((self.image_x, self.image_y)), (other.image_x, other.image_y)))

    def is_identity(self) -> bool:
        return self.image_x == "x" and self.image_y == "y"

    def abelianized(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Column-per-image exponent matrix ((x-row), (y-row))."""
        return (
            (exponent_sum(self.image_x, "x"), exponent_sum(self.image_y, "x")),
            (exponent_sum(self.image_x, "y"), exponent_sum(self.image_y, "y")),
        )

    def __str__(self) -> str:
        return f"x->{self.image_x or '1'}, y->{self.image_y or '1'}"


def _trusted(image_x: str, image_y: str) -> AutF2:
    """An automorphism from reduced images already known to form a basis."""
    aut = object.__new__(AutF2)
    object.__setattr__(aut, "image_x", image_x)
    object.__setattr__(aut, "image_y", image_y)
    return aut


def _values(pair: Pair) -> dict[str, tuple[str, str]]:
    """The value table of a pair of reduced words: each of x, X, y, Y with
    its value on the pair and that value's inverse.  The solver adds u and U
    for its right side."""
    g1, g2 = pair
    G1, G2 = invert(g1), invert(g2)
    return {"x": (g1, G1), "X": (G1, g1), "y": (g2, G2), "Y": (G2, g2)}


def _act(values: dict[str, tuple[str, str]], images, ball: float = inf) -> tuple[str, ...] | None:
    """The words that ``images`` spell over the letters of ``values``, or
    None once their total length exceeds ``ball``.  Reduced factors cancel
    only where two meet (Lyndon–Schupp I.1), by the common suffix of the
    product so far and the next factor's inverse."""
    out_images, total = [], 0
    for image in images:
        out = ""
        for c in image:
            value, inv = values[c]
            if out and out[-1] == inv[-1:]:
                k, n = 1, min(len(out), len(inv))
                while k < n and out[-1 - k] == inv[-1 - k]:
                    k += 1
                out = out[:len(out) - k] + value[k:]
            else:
                out += value
        total += len(out)
        if total > ball:
            return None
        out_images.append(out)
    return tuple(out_images)


# The cyclic words of [x, y] and [y, x].
_BASIS_COMMUTATORS = frozenset({cyclic_normal_form("XYxy"), cyclic_normal_form("YXyx")})


def is_basis_pair(w1: str, w2: str) -> bool:
    """Do the two words form a free basis of F(x, y)?  After the cheap
    determinant check on the abelianization, Nielsen's test: ``[w1, w2]`` is
    conjugate to ``[x, y]`` or ``[y, x]``."""
    a = exponent_sum(w1, "x") * exponent_sum(w2, "y")
    b = exponent_sum(w1, "y") * exponent_sum(w2, "x")
    if abs(a - b) != 1:
        return False
    return cyclic_normal_form(commutator(w1, w2)) in _BASIS_COMMUTATORS


IDENTITY = AutF2("x", "y")

# The Nielsen moves: x -> (x^e1 y^e2)^e3 or y -> (y^e1 x^e2)^e3, for e1, e2,
# e3 in (1, -1) in that nesting order, and the inversions of x and of y.
PRODUCT_MOVES = tuple(AutF2(ix, iy) for ix, iy in (
    ("xy", "y"), ("YX", "y"), ("xY", "y"), ("yX", "y"),
    ("Xy", "y"), ("Yx", "y"), ("XY", "y"), ("yx", "y"),
    ("x", "yx"), ("x", "XY"), ("x", "yX"), ("x", "xY"),
    ("x", "Yx"), ("x", "Xy"), ("x", "YX"), ("x", "xy"),
))
INVERSION_MOVES = (AutF2("X", "y"), AutF2("x", "Y"))


def inner(g: str) -> AutF2:
    """Conjugation by ``g``: every word maps to ``g^-1 w g``."""
    VARIABLES.check_word(g)
    return _trusted(conjugate("x", g), conjugate("y", g))


def _type1_automorphisms() -> tuple[AutF2, ...]:
    images = [
        (a, b)
        for a in ("x", "X", "y", "Y")
        for b in ("x", "X", "y", "Y")
        if a.lower() != b.lower()
    ]
    return tuple(AutF2(a, b) for a, b in images)


def _type2_automorphisms() -> tuple[AutF2, ...]:
    auts = []
    for a in ("x", "X", "y", "Y"):
        z = "y" if a.lower() == "x" else "x"
        for image in (multiply(z, a), multiply(invert(a), z), conjugate(z, a)):
            if a.lower() == "x":
                auts.append(AutF2("x", image))
            else:
                auts.append(AutF2(image, "y"))
    return tuple(auts)


TYPE1_AUTOMORPHISMS = _type1_automorphisms()
TYPE2_AUTOMORPHISMS = _type2_automorphisms()
WHITEHEAD_AUTOMORPHISMS = TYPE1_AUTOMORPHISMS + TYPE2_AUTOMORPHISMS
# The signed permutations form the dihedral group of order 8, so p^-1 == p^3.
TYPE1_INVERSES = tuple(p.compose(p).compose(p) for p in TYPE1_AUTOMORPHISMS)
# Type-2 move i is (a, kind) with a = "xXyY"[i // 3]: its inverse is (a^-1, kind).
TYPE2_INVERSES = tuple(TYPE2_AUTOMORPHISMS[3 * (i // 3 ^ 1) + i % 3] for i in range(12))
WHITEHEAD_INVERSES = TYPE1_INVERSES + TYPE2_INVERSES


def _length_change_coefficients(t: AutF2) -> dict[str, int]:
    """Whitehead's cut count for the type-2 move ``t``, ``z -> l.z.r``: it
    changes the cyclic length of a cyclically reduced word by the sum of
    ``coefficient[pq]`` over its cyclic letter pairs ``pq``.  ``t(p)`` adds
    ``|t(p)| - 1`` letters, and the pair loses two when the last letter of
    ``t(p)`` cancels the first of ``t(q)``; those cancellations never cascade."""
    image = {"x": t.image_x, "X": invert(t.image_x), "y": t.image_y, "Y": invert(t.image_y)}
    return {
        p + q: len(image[p]) - 1 - 2 * (image[p][-1] == image[q][0].swapcase())
        for p in image for q in image if q != p.swapcase()
    }


_TYPE2_COEFFICIENTS = tuple(_length_change_coefficients(t) for t in TYPE2_AUTOMORPHISMS)


def _length_changes(w: str) -> list[int]:
    """The change in cyclic length of ``w`` under each type-2 Whitehead
    automorphism, in list order, from one count of its cyclic letter pairs."""
    core = cyclic_core(w)
    pairs = Counter(map(add, core, core[1:] + core[:1])).items()
    return [sum(n * coefficient[pq] for pq, n in pairs) for coefficient in _TYPE2_COEFFICIENTS]


def whitehead_minimize(w: str) -> tuple[str, AutF2, AutF2]:
    """Greedily drive the cyclic length down; returns ``(image, aut, inverse)``.

    Each step applies the type-2 Whitehead automorphism that shortens the
    cyclic length the most (ties broken by the image's cyclic normal form,
    then by position in the fixed automorphism list), stopping when no
    strict improvement exists; the changes come from ``_length_changes``,
    so only the moves of the least change are applied.  The image is then
    rotated to its cyclic normal form by a final conjugation, so it is
    cyclically reduced and canonical, and ``aut.apply(w) == image`` exactly.
    ``inverse`` is composed alongside, from ``TYPE2_INVERSES`` in reverse order.
    """
    cur = reduce_word(w)
    aut = inverse = IDENTITY
    while True:
        changes = _length_changes(cur)
        least = min(changes)
        if least >= 0:
            break
        images = {i: TYPE2_AUTOMORPHISMS[i].apply(cur) for i, d in enumerate(changes) if d == least}
        i = min(images, key=lambda i: shortlex_key(cyclic_normal_form(images[i])))
        cur = images[i]
        aut = TYPE2_AUTOMORPHISMS[i].compose(aut)
        inverse = inverse.compose(TYPE2_INVERSES[i])
    form = cyclic_normal_form(cur)
    if form != cur:
        h = conjugating_word(cur, form)
        aut = inner(h).compose(aut)
        inverse = inverse.compose(inner(invert(h)))
        cur = form
    return cur, aut, inverse


class MinimalLevel:
    """The minimal level of the orbit of ``w``, walked as far as lookups need.

    The level is the cyclic forms of the minimal length in the orbit, joined
    by Whitehead automorphisms that stay on it; in rank two it is finite.
    It holds the gcd of ``w``'s exponent sums, the minimizer ``aut`` with
    ``aut.apply(w) == minimal`` and its ``inverse``, the forms reached in
    breadth-first order from ``minimal``, each with its path automorphism
    ``A_f``, the inverse ``A_f^-1`` and the image word, and the index of the
    next form to expand.  The order does not depend on what is looked up, so
    every lookup finds a form by the same path.
    """

    def __init__(self, w: str) -> None:
        w = reduce_word(w)
        self.gcd = gcd(exponent_sum(w, "x"), exponent_sum(w, "y"))
        self.minimal, self.aut, self.inverse = whitehead_minimize(w)
        self.forms = [self.minimal]
        self.reached = {self.minimal: (IDENTITY, IDENTITY, self.minimal)}
        self.head = 0

    def _reaches(self, form: str) -> bool:
        """Whether ``form`` is on the level: expand heads until it is reached
        or the level is exhausted.  A head's neighbours on the level are its
        images under the signed permutations and under the type-2 moves that
        keep its length."""
        while form not in self.reached and self.head < len(self.forms):
            head = self.forms[self.head]
            aut, inverse, word = self.reached[head]
            self.head += 1
            changes = [0] * len(TYPE1_AUTOMORPHISMS) + _length_changes(head)
            for t, t_inverse, d in zip(WHITEHEAD_AUTOMORPHISMS, WHITEHEAD_INVERSES, changes):
                if d:
                    continue
                img = t.apply(word)
                new = cyclic_normal_form(img)
                if new not in self.reached:
                    self.reached[new] = (t.compose(aut), inverse.compose(t_inverse), img)
                    self.forms.append(new)
        return form in self.reached

    def carry(self, target: str) -> tuple[AutF2, AutF2] | None:
        """``(aut, inverse)`` with ``aut.apply(w) == target``, or None when
        the two words lie in different orbits.

        The gcd of the exponent sums and the minimal length are invariants of
        the orbit.  Past them, the minimized target's form ``f`` on the level
        gives ``A_f`` with ``A_f(minimal)`` conjugate to the minimized
        target, and one conjugation ``inner(h)`` makes the match exact.  With
        ``a`` the target's minimizer, ``aut = a^-1 . inner(h) . A_f . self.aut``
        and ``inverse = self.inverse . A_f^-1 . inner(h^-1) . a``."""
        target = reduce_word(target)
        if gcd(exponent_sum(target, "x"), exponent_sum(target, "y")) != self.gcd:
            return None
        m, a, a_inverse = whitehead_minimize(target)
        if len(m) != len(self.minimal) or not self._reaches(m):
            return None
        path, path_inverse, word = self.reached[m]
        h = conjugating_word(word, m)
        return (a_inverse.compose(inner(h).compose(path.compose(self.aut))),
                self.inverse.compose(path_inverse.compose(inner(invert(h)).compose(a))))


def is_primitive(w: str) -> AutF2 | None:
    """An automorphism carrying ``w`` to ``x``, if ``w`` is primitive: the
    lookup of ``x`` on the minimal level of ``w``'s orbit.  By Whitehead,
    ``w`` is primitive exactly when its minimization ends at one letter."""
    carried = MinimalLevel(w).carry("x")
    return carried and carried[0]
