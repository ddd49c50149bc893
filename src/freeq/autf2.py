"""Automorphisms of the free group of rank two.

An automorphism is stored by its images of ``x`` and ``y``.  The public
constructor ``AutF2(ix, iy)`` validates that the image pair is a free basis
by Nielsen's test: ``(u, v)`` is a basis exactly when ``[u, v]`` is
conjugate to ``[x, y]`` or its inverse.

Validation happens once, where images come from outside.  The results of
``compose``, ``inverse``, ``inner`` and ``NielsenMove.as_aut`` are trusted
without a basis check: a product of automorphisms is an automorphism, and
an elementary Nielsen move or a conjugation is one by construction.

Inversion shortens the images by Nielsen moves down to a signed permutation
of ``(x, y)``; the inverse is that trail of moves followed by the inverse of
the permutation.  The minimal level of a word's orbit, built once per word
and walked only as far as lookups need, decides which words share that
orbit: primitivity is the lookup of ``x``, and membership in the orbit of
``[x, y]`` the lookup of ``XYxy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .words import (
    VARIABLES,
    WordError,
    commutator,
    conjugate,
    conjugating_word,
    cyclic_length,
    cyclic_normal_form,
    evaluate,
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
    unless they form a free basis.  Automorphisms built by ``compose``,
    ``inverse``, ``inner`` and ``NielsenMove.as_aut`` skip that check.
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
        return evaluate(w, self.image_x, self.image_y)

    def compose(self, other: "AutF2") -> "AutF2":
        """self after other: ``(self.compose(other)).apply(w) == self.apply(other.apply(w))``."""
        return _trusted(self.apply(other.image_x), self.apply(other.image_y))

    def inverse(self) -> "AutF2":
        """Greedy shortening carries the images to a signed permutation P
        through moves M1..Mk, so ``self . M1 ... Mk == P`` and the inverse is
        ``M1 ... Mk . P^-1``."""
        end, trail = _greedy_shorten((self.image_x, self.image_y))
        inv = IDENTITY
        for m in trail:
            inv = inv.compose(m.as_aut())
        return inv.compose(_trusted(*_permutation_inverse(end)))

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


@dataclass(frozen=True)
class NielsenMove:
    """Elementary Nielsen transformation of an ordered pair.

    ``side`` 0 replaces the first component, 1 the second.  Writing the kept
    component as ``b`` and the replaced one as ``a``, the replacement is
    ``(a^e1 b^e2)^e3`` with ``e1, e3 in {1, -1}`` and ``e2 in {-1, 0, 1}``.
    """

    side: int
    e1: int
    e2: int
    e3: int

    def apply(self, pair: Pair) -> Pair:
        a, b = pair if self.side == 0 else (pair[1], pair[0])
        # Every exponent is -1, 0 or 1, so one free reduction suffices.
        head = a if self.e1 == 1 else invert(a)
        tail = "" if self.e2 == 0 else b if self.e2 == 1 else invert(b)
        new = reduce_word(head + tail)
        if self.e3 == -1:
            new = invert(new)
        return (new, pair[1]) if self.side == 0 else (pair[0], new)

    def as_aut(self) -> AutF2:
        return _trusted(*self.apply(("x", "y")))


PRODUCT_MOVES: tuple[NielsenMove, ...] = tuple(
    NielsenMove(side, e1, e2, e3)
    for side in (0, 1)
    for e1 in (1, -1)
    for e2 in (1, -1)
    for e3 in (1, -1)
)
INVERSION_MOVES: tuple[NielsenMove, ...] = (
    NielsenMove(0, -1, 0, 1),
    NielsenMove(1, -1, 0, 1),
)


def _greedy_shorten(pair: Pair) -> tuple[Pair, list[NielsenMove]]:
    """Shorten a basis pair to a signed permutation by the first strictly
    shortening product move at each step; a basis pair of total length above
    two always has one.  Any such trail gives ``inverse`` the unique inverse."""
    trail: list[NielsenMove] = []
    while (total := len(pair[0]) + len(pair[1])) > 2:
        for move in PRODUCT_MOVES:
            new = move.apply(pair)
            if len(new[0]) + len(new[1]) < total:
                pair = new
                trail.append(move)
                break
        else:
            raise AssertionError(f"no product move shortens the pair {pair!r}")
    return pair, trail


def _permutation_inverse(pair: Pair) -> Pair:
    """The images of the inverse of the signed letter permutation with images
    ``pair``, read off letter by letter: if ``x -> Y``, then ``y -> X``."""
    inv = {img.lower(): var if img.islower() else var.upper() for var, img in zip("xy", pair)}
    return inv["x"], inv["y"]


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


def whitehead_minimize(w: str) -> tuple[str, AutF2]:
    """Greedily drive the cyclic length down; returns ``(image, aut)``.

    Each step applies the single-letter Whitehead automorphism that shortens
    the cyclic length the most (ties broken by the image's cyclic normal
    form, then by position in the fixed automorphism list), stopping when no
    strict improvement exists.  The image is then rotated to its cyclic
    normal form by a final conjugation, so it is cyclically reduced and
    canonical; the returned ``aut`` satisfies ``aut.apply(w) == image``
    exactly.
    """
    cur = reduce_word(w)
    total = IDENTITY
    while True:
        base = cyclic_length(cur)
        best = None
        for idx, t in enumerate(TYPE2_AUTOMORPHISMS):
            img = t.apply(cur)
            cl = cyclic_length(img)
            if cl < base:
                cand = (cl, shortlex_key(cyclic_normal_form(img)), idx)
                if best is None or cand < best[0]:
                    best = (cand, t, img)
        if best is None:
            break
        _, t, cur = best
        total = t.compose(total)
    form = cyclic_normal_form(cur)
    if form != cur:
        h = conjugating_word(cur, form)
        total = inner(h).compose(total)
        cur = form
    return cur, total


class MinimalLevel:
    """The minimal level of the orbit of ``w``, walked as far as lookups need.

    The level is the cyclic forms of the minimal length in the orbit, joined
    by Whitehead automorphisms that stay on it; in rank two it is finite.
    It holds the gcd of ``w``'s exponent sums, the minimizer ``aut`` with
    ``aut.apply(w) == minimal``, the forms reached in breadth-first order from
    ``minimal``, each with its path automorphism ``A_f`` and image word, and
    the index of the next form to expand.  The order does not depend on what
    is looked up, so every lookup finds a form by the same path.
    """

    def __init__(self, w: str) -> None:
        w = reduce_word(w)
        self.gcd = gcd(exponent_sum(w, "x"), exponent_sum(w, "y"))
        self.minimal, self.aut = whitehead_minimize(w)
        self.forms = [self.minimal]
        self.reached: dict[str, tuple[AutF2, str]] = {self.minimal: (IDENTITY, self.minimal)}
        self.head = 0

    def _reaches(self, form: str) -> bool:
        """Whether ``form`` is on the level: expand heads until it is reached
        or the level is exhausted."""
        while form not in self.reached and self.head < len(self.forms):
            aut, word = self.reached[self.forms[self.head]]
            self.head += 1
            for t in WHITEHEAD_AUTOMORPHISMS:
                img = t.apply(word)
                if cyclic_length(img) == len(self.minimal):
                    new = cyclic_normal_form(img)
                    if new not in self.reached:
                        self.reached[new] = (t.compose(aut), img)
                        self.forms.append(new)
        return form in self.reached

    def carry(self, target: str) -> AutF2 | None:
        """An automorphism with ``aut.apply(w) == target``, or None when the
        two words lie in different orbits.

        The gcd of the exponent sums and the minimal length are invariants of
        the orbit.  Past them, the minimized target's form ``f`` on the level
        gives ``A_f`` with ``A_f(minimal)`` conjugate to the minimized
        target, and one conjugation makes the match exact."""
        target = reduce_word(target)
        if gcd(exponent_sum(target, "x"), exponent_sum(target, "y")) != self.gcd:
            return None
        m, a = whitehead_minimize(target)
        if len(m) != len(self.minimal) or not self._reaches(m):
            return None
        path, word = self.reached[m]
        h = conjugating_word(word, m)
        return a.inverse().compose(inner(h).compose(path.compose(self.aut)))


def is_primitive(w: str) -> AutF2 | None:
    """An automorphism carrying ``w`` to ``x``, if ``w`` is primitive: the
    lookup of ``x`` on the minimal level of ``w``'s orbit.  By Whitehead,
    ``w`` is primitive exactly when its minimization ends at one letter."""
    return MinimalLevel(w).carry("x")
