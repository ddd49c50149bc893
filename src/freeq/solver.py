"""Solution-set descriptions for equations w(x, y) = u over a free group.

The left side ``w`` is a word in the variables ``x, y``; the right side ``u``
is a word over a coefficient alphabet.  A solution is a pair of coefficient
words ``(g1, g2)`` with ``w(g1, g2) = u``.  The describing pipeline:

1. reject empty or one-variable ``w``;
2. trivial right side: all solutions commute and form a power lattice;
3. proper-power ``w = v^n``: take the unique n-th root of both sides;
4. primitive ``w``: one free parameter describes everything;
5. the rank-one lattice of commuting solutions;
6. right side a proper power: no non-commuting solutions exist at all.
   For a single run ``s^a z^k s^b`` this is Lyndon–Schützenberger (1962):
   ``g^M h^N = c^P`` with ``M, N, P >= 2`` forces ``g`` and ``h`` to
   commute; brute force (``freeq.oracle``) uses the same theorem to test
   only the powers of u's root for such runs.  For a commutator it is
   Schützenberger's theorem that a non-trivial commutator is never a proper
   power.  For every other ``w`` it is only measured: no ``w`` of at most 6
   letters that reaches this step takes a proper-power value at a
   non-commuting pair of words of at most 3 letters;
7. otherwise classify ``w`` (orbit of the commutator / splits over an edge
   letter / neither), compute canonical solution-moving automorphisms, and
   search the finitely many terminal subgroup bases for seeds, each a
   rank-two solution that ``descend`` carries to the least pair of its orbit
   under those automorphisms.  A terminal subgroup's basis is read only when
   the gcd of ``u``'s signed crossings of its two non-tree edges equals the
   gcd of ``w``'s exponent sums; no other subgroup can host a solution.  The
   orbit's walk in a finite ball, ``orbit_walk``, runs only when certify
   reads ``VarietyDescription.orbits``.

Steps 3 to 7 read one ``LeftSide`` of ``w``, built once per left side.
Step 3 reads its ``root`` and ``power``, step 4 its ``primitive`` carry, and
step 7 its ``classification``, its ``generators`` and its ``level``.  Each
orbit question, whether the root lies in the orbit of ``x``, of ``[x, y]``
or of a candidate's rewritten right side, is a lookup on that ``level``,
the one ``MinimalLevel`` of the root's orbit.  Nielsen moves act on
basis pairs, and generators on solutions, by ``autf2._act``, which reads
their image words letter by letter.

Every emitted solution pair is re-verified against the equation before it is
returned.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from math import gcd

from .autf2 import (
    IDENTITY,
    INVERSION_MOVES,
    PRODUCT_MOVES,
    TYPE1_AUTOMORPHISMS,
    AutF2,
    MinimalLevel,
    SearchBudgetExceeded,
    _act,
    _values,
    inner,
)
from .graphs import CoreGraph, build_subgroup_graph
from .words import (
    VARIABLES,
    Alphabet,
    WordError,
    commutator,
    conjugate,
    conjugating_word,
    evaluate,
    exponent_sum,
    invert,
    kth_root,
    multiply,
    pair_key,
    pair_rank,
    power,
    primitive_root,
    reduce_word,
)

Pair = tuple[str, str]

STATUS_OK = "ok"
STATUS_UNRESOLVED = "unresolved"

KIND_EMPTY = "empty"
KIND_TRIVIAL = "trivial-rhs"
KIND_PARAMETRIC = "parametric"
KIND_RANK1_ONLY = "rank1-only"
KIND_JSJ = "jsj"

CASE_RIGID = "rigid"
CASE_HNN = "hnn"
CASE_QH = "qh"
CASE_UNRESOLVED = "unresolved"

FORMULA_EMPTY = "empty"
FORMULA_KERNEL = "kernel-lattice"
FORMULA_PARAMETRIC = "parametric-substitution"
FORMULA_POWER = "power-lattice"
FORMULA_CONJUGATES = "u-conjugates"
FORMULA_HNN = "hnn-twist"
FORMULA_ORBIT = "automorphism-orbit"

_FORMULA_BY_CASE = {
    CASE_RIGID: FORMULA_CONJUGATES,
    CASE_HNN: FORMULA_HNN,
    CASE_QH: FORMULA_ORBIT,
}

DELTA_X = AutF2("yx", "y", "Yx", "y")
DELTA_Y = AutF2("x", "xy", "x", "Xy")


# The bases the edge-splitting search walks, tested or not, before it gives up.
HNN_MAX_BASES = 10**4


@dataclass(frozen=True)
class Equation:
    """w(x, y) = u with w over the variables and u over the coefficients."""

    alphabet: Alphabet
    lhs: str
    rhs: str

    def __post_init__(self) -> None:
        for v in VARIABLES.letters:
            if v in self.alphabet:
                raise WordError(f"coefficient alphabet must not contain the variable {v!r}")
        object.__setattr__(self, "lhs", reduce_word(VARIABLES.check_word(self.lhs)))
        object.__setattr__(self, "rhs", reduce_word(self.alphabet.check_word(self.rhs)))

    def __str__(self) -> str:
        return f"{self.lhs or '1'} = {self.rhs or '1'}"

    def holds_for(self, g1: str, g2: str) -> bool:
        return evaluate(self.lhs, g1, g2) == self.rhs


def verify_solution(eq: Equation, g1: str, g2: str) -> tuple[bool, int]:
    """Check a candidate pair; returns (is-solution, rank of <g1, g2>).

    The words are checked and reduced here, at the trust boundary; the rank
    is then read off by ``pair_rank``.
    """
    g1 = reduce_word(eq.alphabet.check_word(g1))
    g2 = reduce_word(eq.alphabet.check_word(g2))
    return eq.holds_for(g1, g2), pair_rank(g1, g2)


@dataclass(frozen=True)
class Rank1Family:
    """Commuting solutions (root^(p + n dx), root^(q + n dy)), n an integer."""

    root: str
    base: tuple[int, int] | None
    direction: tuple[int, int]

    def is_empty(self) -> bool:
        return self.base is None

    def exponents(self, n: int) -> tuple[int, int]:
        if self.base is None:
            raise WordError("the commuting-solution family is empty")
        return (self.base[0] + n * self.direction[0], self.base[1] + n * self.direction[1])

    def member(self, n: int) -> Pair:
        n1, n2 = self.exponents(n)
        return (power(self.root, n1), power(self.root, n2))


@dataclass(frozen=True)
class TrivialFamily:
    """Solutions of w = 1: (r^n1, r^n2) over any root r, (n1, n2) in a lattice."""

    generators: tuple[tuple[int, int], ...]

    def contains_exponents(self, n1: int, n2: int) -> bool:
        if len(self.generators) == 2:
            return True
        d1, d2 = self.generators[0]
        if n1 * d2 != n2 * d1:
            return False
        k, lead = (n1, d1) if d1 else (n2, d2)
        return k % lead == 0

    def member(self, root: str, n1: int, n2: int) -> Pair:
        if not self.contains_exponents(n1, n2):
            raise WordError(f"exponents ({n1}, {n2}) are outside the kernel lattice")
        return (power(root, n1), power(root, n2))


@dataclass(frozen=True)
class ParametricFamily:
    """All solutions for a primitive left side, one free word parameter."""

    aut: AutF2  # carries the lhs to x; its inverse's y-image evaluates to the parameter

    def member(self, rhs: str, z: str) -> Pair:
        return (evaluate(self.aut.image_x, rhs, z), evaluate(self.aut.image_y, rhs, z))

    def parameter_of(self, g1: str, g2: str) -> str:
        return evaluate(self.aut.inverse_y, g1, g2)


@dataclass(frozen=True)
class JsjClassification:
    """The case of a root and, for qh and hnn, the automorphism ``aut`` that
    carries the case's standard form onto the root: ``aut.apply("XYxy")``
    is the root (qh), or ``aut`` is the splitting basis ``x -> p, y -> t``,
    so that the root lies in ``aut(<x, Yxy>) = <p, t^-1 p t>`` with zero
    t-exponent (hnn).  The case's twists are ``aut . delta . aut^-1``."""

    kind: str
    aut: AutF2 | None = None
    note: str = ""


@dataclass(frozen=True)
class CanonicalGenerator:
    """An automorphism fixing the left side."""

    symbol: str
    name: str
    aut: AutF2


@dataclass(frozen=True)
class VarietyDescription:
    equation: Equation
    reduced: Equation
    status: str
    kind: str
    formula: str
    note: str = ""
    rank1: Rank1Family | None = None
    trivial: TrivialFamily | None = None
    parametric: ParametricFamily | None = None
    classification: JsjClassification | None = None
    generators: tuple[CanonicalGenerator, ...] = ()
    minimal: tuple[Pair, ...] = ()

    @cached_property
    def orbits(self) -> tuple[frozenset[Pair], ...]:
        """The ``orbit_walk`` component of each minimal solution that lies in
        the base ball ``2|u| + 4``, walked once, the first time it is read.
        Certify starts from these instead of walking them again.  Not a
        field, so it stays out of equality, hashing and repr."""
        ball = 2 * len(self.reduced.rhs) + 4
        return tuple(frozenset(orbit_walk(m, self.generators, self.reduced.rhs))
                     for m in self.minimal if len(m[0]) + len(m[1]) <= ball)

    def generator_by_symbol(self, symbol: str) -> CanonicalGenerator:
        for g in self.generators:
            if g.symbol == symbol:
                return g
        raise WordError(f"no canonical generator named {symbol!r}")


def _bezout(a: int, b: int) -> tuple[int, int]:
    """Integers (s, t) with s*a + t*b == gcd(|a|, |b|) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_s, old_t


def _check_lhs(w: str) -> str:
    w = reduce_word(VARIABLES.check_word(w))
    if not w:
        raise WordError("the left side of the equation must not be trivial")
    present = {c.lower() for c in w}
    if present != {"x", "y"}:
        raise WordError("the left side must involve both variables")
    return w


def solve_trivial_rhs(eq: Equation) -> TrivialFamily:
    """Kernel lattice for w = 1: every solution is a pair of powers of one root."""
    sx = exponent_sum(eq.lhs, "x")
    sy = exponent_sum(eq.lhs, "y")
    if sx == 0 and sy == 0:
        return TrivialFamily(generators=((1, 0), (0, 1)))
    d = gcd(abs(sx), abs(sy))
    gen = (sy // d, -sx // d)
    if gen[0] < 0 or (gen[0] == 0 and gen[1] < 0):
        gen = (-gen[0], -gen[1])
    return TrivialFamily(generators=(gen,))


def rank1_family(eq: Equation) -> Rank1Family:
    """The lattice of commuting solutions of w = u (u non-trivial)."""
    root, e = primitive_root(eq.rhs)
    sx = exponent_sum(eq.lhs, "x")
    sy = exponent_sum(eq.lhs, "y")
    d = gcd(abs(sx), abs(sy))
    if d == 0 or e % d != 0:
        return Rank1Family(root=root, base=None, direction=(0, 0))
    s, t = _bezout(sx, sy)
    k = e // d
    family = Rank1Family(root=root, base=(s * k, t * k), direction=(sy // d, -sx // d))
    g1, g2 = family.member(0)
    if not eq.holds_for(g1, g2):
        raise AssertionError("rank-one particular solution failed verification")
    return family


_MOVES = PRODUCT_MOVES + INVERSION_MOVES
_BASIS_MOVES = tuple((move.image_x, move.image_y) for move in _MOVES)


class _BasisWalk:
    """The breadth-first walk over basis pairs of total length at most ``bound``.

    Pairs are reached from (x, y) under elementary Nielsen moves.  The walk
    holds the pairs in breadth-first order, the index of each reached pair's
    parent and of the move that reached it, the index of the next pair to
    expand and the graphs ``edge_group`` built.
    It grows only as far as a caller reads it.  ``lines`` files each pair's
    index, in breadth-first order, under ``±(p_x, p_y)``, the exponent sums of
    its first component, and under ``(0, 0)``.
    """

    def __init__(self, bound: int) -> None:
        self.bound = bound
        self.pairs: list[Pair] = [("x", "y")]
        self.lines = defaultdict(list, {(1, 0): [0], (-1, 0): [0], (0, 0): [0]})
        self.visited: dict[Pair, tuple[int, int] | None] = {self.pairs[0]: None}
        self.head = 0
        self.graphs: dict[int, CoreGraph] = {}

    def edge_group(self, i: int) -> CoreGraph:
        """The graph of ``<p, t^-1 p t>`` for node ``i = (p, t)``, built once."""
        if i not in self.graphs:
            p, t = self.pairs[i]
            self.graphs[i] = build_subgroup_graph(VARIABLES, [p, conjugate(p, t)])
        return self.graphs[i]

    def reaches(self, i: int) -> bool:
        """Whether node ``i`` exists: expand heads until it does or the walk ends."""
        pairs, lines = self.pairs, self.lines
        while len(pairs) <= i and self.head < len(pairs):
            values = _values(pairs[self.head])
            for move, images in enumerate(_BASIS_MOVES):
                new = _act(values, images, self.bound)
                if new is not None and new not in self.visited:
                    self.visited[new] = (self.head, move)
                    px, py = exponent_sum(new[0], "x"), exponent_sum(new[0], "y")
                    n = len(pairs)
                    lines[px, py].append(n)
                    lines[-px, -py].append(n)
                    lines[0, 0].append(n)
                    pairs.append(new)
            self.head += 1
        return i < len(pairs)


@lru_cache(maxsize=8)
def _basis_walk(bound: int) -> _BasisWalk:
    return _BasisWalk(bound)


def detect_hnn_splitting(w: str, hnn_max_bases: int = HNN_MAX_BASES) -> AutF2 | None:
    """Search basis pairs (p, t) for an edge splitting of w, and return the
    first basis ``x -> p, y -> t`` that is one.

    Pairs are enumerated breadth-first from (x, y) under elementary Nielsen
    moves, expanding only within total length max(|w|, 2).  A pair is a
    witness when w, rewritten over (p, t), has zero t-exponent, and w lies in
    <p, t^-1 p t> (rank two: the image of <x, Yxy> under (p, t)).  Exhausting
    the bounded space without a witness returns None; when the walk holds
    more than ``hnn_max_bases`` bases and none of the first
    ``hnn_max_bases`` is a witness, it raises :class:`SearchBudgetExceeded`.
    The budget counts bases walked, whether or not they are tested.

    The walk depends only on the bound, so it is held per bound and shared
    by every call, and it grows only as far as a call reads it; so is the
    subgroup graph of each basis that passes the t-exponent test.  That test
    is on the abelianization: with ``phi = AutF2(p, t)`` the rewritten word
    is ``phi^-1(w)``, whose y-exponent sum is zero exactly when
    ``p_x * w_y == p_y * w_x``, and ``w`` is never rewritten.  As ``p`` is
    primitive, the bases that pass are those filed under ``(w_x, w_y)/gcd``,
    or all of them when both sums are zero.  The search traces only those,
    and grows the walk only once it has traced every one reached, so it
    stops where a scan of every basis would.  The basis returned is the
    product of the moves that reached it, so it carries its inverse.
    """
    w = reduce_word(w)
    walk = _basis_walk(max(len(w), 2))
    wx, wy = exponent_sum(w, "x"), exponent_sum(w, "y")
    d = gcd(wx, wy) or 1
    line = walk.lines[wx // d, wy // d]
    k = 0  # line[:k] are traced and are no witness
    while True:
        while k < len(line) and line[k] < hnn_max_bases:
            if walk.edge_group(line[k]).trace(w) == 0:
                basis, i = IDENTITY, line[k]
                while i:  # node i is its parent composed with move: multiply up to (x, y)
                    i, move = walk.visited[walk.pairs[i]]
                    basis = _MOVES[move].compose(basis)
                return basis
            k += 1
        # Every basis of the line walked so far is traced: grow the walk by
        # what the scan would read next, unless that is past the budget.
        walked = len(walk.pairs)
        if k == len(line) and walked <= hnn_max_bases:
            if not walk.reaches(walked):
                return None
            if walked < hnn_max_bases:
                continue
        raise SearchBudgetExceeded(
            f"edge-splitting search tested {hnn_max_bases} bases without a verdict"
        )


_CONJUGATION = "c"  # the symbol of inner(w), which acts on solutions as conjugation by u
# The twists of each case's standard form, <x, Yxy> or XYxy, by symbol and name.
_TWISTS = {
    CASE_HNN: (("t", "edge-twist", DELTA_Y),),
    CASE_QH: (("d", "boundary-twist-x", DELTA_X), ("e", "boundary-twist-y", DELTA_Y)),
}
_SYMMETRY_SYMBOLS = "pqruvz"  # one per symmetry: a seventh raises IndexError


def _symmetry_generators(w: str) -> list[AutF2]:
    """Finite symmetries of w: signed letter permutations fixed up by an inner.

    For every non-identity signed permutation ``pi`` whose image of ``w`` is
    conjugate to ``w``, the composite ``inner(h) . pi`` (with ``h`` the
    conjugator) fixes ``w`` exactly.  These capture the finite part of the
    stabilizer — e.g. for ``xxyy`` the swap-and-rotate symmetry, whose
    abelianization has determinant -1 and is therefore not a product of
    conjugations and twists.  Each composite has
    the abelianization of its ``pi``, so none repeats and none is the identity.
    """
    out = []
    for perm in TYPE1_AUTOMORPHISMS:
        if perm.is_identity():
            continue
        h = conjugating_word(perm.apply(w), w)
        if h is not None:
            out.append(inner(h).compose(perm))
    return out


class LeftSide:
    """The analysis of one left side ``w``, which holds whatever ``u`` is.

    The constructor checks ``w`` and writes it ``root^power`` with ``root``
    not a proper power.  Everything else is of the root, and each part is
    computed the first time it is read, so a trivial right side builds no
    level and a proper-power right side runs no edge-splitting search:

    - ``level``: the minimal level of the root's orbit, which answers every
      orbit lookup;
    - ``primitive``: the automorphism carrying the root to ``x``, or None;
    - ``classification``: orbit of the commutator / splits over an edge
      letter / neither, under the budget ``hnn_max_bases``;
    - ``generators``: the canonical automorphisms that fix the root.
    """

    def __init__(self, w: str, hnn_max_bases: int = HNN_MAX_BASES) -> None:
        self.word = _check_lhs(w)
        self.root, self.power = primitive_root(self.word)
        self.hnn_max_bases = hnn_max_bases

    @cached_property
    def level(self) -> MinimalLevel:
        return MinimalLevel(self.root)

    @cached_property
    def primitive(self) -> AutF2 | None:
        return self.level.carry("x")

    @cached_property
    def classification(self) -> JsjClassification:
        """The trichotomy of the root; a primitive root raises :class:`WordError`.

        The commutator test runs first, as the lookup of ``XYxy`` on the
        level; a word in the orbit of [x, y] (or its inverse) is never
        reported as split though it also admits splittings.
        """
        if self.primitive is not None:
            raise WordError(f"the root {self.root} of the left side is primitive: "
                            "its equations are parametric, with no splitting case")
        # xyXY is a rotation of XYxy, hence in the same orbit: one target.
        to_commutator = self.level.carry("XYxy")
        if to_commutator is not None:
            return JsjClassification(kind=CASE_QH, aut=to_commutator.inverse)
        try:
            basis = detect_hnn_splitting(self.root, self.hnn_max_bases)
        except SearchBudgetExceeded as exc:
            return JsjClassification(kind=CASE_UNRESOLVED, note=str(exc))
        if basis is not None:
            return JsjClassification(kind=CASE_HNN, aut=basis)
        return JsjClassification(
            kind=CASE_RIGID,
            note=f"no splitting among bases of total length at most {max(len(self.root), 2)}",
        )

    @cached_property
    def generators(self) -> tuple[CanonicalGenerator, ...]:
        """Automorphisms fixing the root that carry solutions to solutions.

        Beyond the conjugation by the root itself and the twists of its
        case, each ``aut . delta . aut^-1`` with the classification's
        ``aut``, the finite permutation symmetries of the root are included:
        without them the orbit of a single minimal solution can miss
        mirror-image solutions (the twist subgroup sits at finite index in
        the full stabilizer).
        """
        w, cls = self.root, self.classification
        gens = [CanonicalGenerator(_CONJUGATION, "conjugation-by-lhs", inner(w))]
        for symbol, name, delta in _TWISTS.get(cls.kind, ()):
            gens.append(CanonicalGenerator(symbol, name, cls.aut.compose(delta).compose(cls.aut.inverse)))
        for i, aut in enumerate(_symmetry_generators(w)):
            gens.append(CanonicalGenerator(_SYMMETRY_SYMBOLS[i], f"symmetry-{i}", aut))
        for g in gens:
            if g.aut.apply(w) != w:
                raise AssertionError(f"canonical generator {g.name} does not fix the left side")
        return tuple(gens)


# A generator acts on a solution (g1, g2) of w = u by ``_act`` over the pair's
# value table with u and U, the right side and its inverse; c = inner(w) takes
# each g to w(g1, g2)^-1 g w(g1, g2) = u^-1 g u, so c is spelled (Uxu, Uyu).
_CONJUGATION_IMAGES = (("Uxu", "Uyu"), ("uxU", "uyU"))


def _images(gen: CanonicalGenerator, inverse: bool) -> Pair:
    """The images of ``gen``, or of its inverse, on a solution."""
    if gen.symbol == _CONJUGATION:
        return _CONJUGATION_IMAGES[inverse]
    aut = gen.aut
    return (aut.inverse_x, aut.inverse_y) if inverse else (aut.image_x, aut.image_y)


def _actions(gens) -> list[Pair]:
    """The images of every generator in ``gens``, then of each inverse."""
    return [_images(g, inverse) for inverse in (False, True) for g in gens]


def _rhs_values(rhs: str) -> dict[str, Pair]:
    """The entries of u and U in a solution's value table."""
    return {"u": (rhs, invert(rhs)), "U": (invert(rhs), rhs)}


def terminal_candidates(eq: Equation, sums_gcd: int):
    """Rank-two subgroup bases that can host a minimal solution of a left
    side whose exponent sums have gcd ``sums_gcd``.

    Every candidate subgroup is filled by the right side, so its core graph
    is a folded quotient of the u-labelled cycle.  The walk builds them by
    reading ``u`` from the basepoint: it follows an existing edge for the
    letter (which keeps the graph folded), or branches into opening a new
    vertex or joining an existing vertex whose slot for the letter is free.
    The second join is closed at once by following the rest of ``u``, which
    must end at the basepoint.  Branches share one signed edge map: a visit
    adds its two steps and the undo record stacked beneath it deletes them.
    Each quotient is reached once, and its map, relabelled, is its CoreGraph:
    it is folded, and no vertex but the basepoint has degree below two.

    The opening edges form a spanning tree whose non-tree edges are the two
    joins.  ``u``'s signed crossings of them and the rewritten ``u``'s
    exponent sums are coordinates of one class of ``H1 = Z^2`` in two bases,
    which differ by a matrix in ``GL(2, Z)``, so both have the same gcd.  A
    quotient whose crossings miss ``sums_gcd`` is dropped before its basis
    is read.  Returns ``(basis_pair, rewritten_u)`` entries sorted by the
    basis pair.
    """
    u = eq.rhs
    if not u:
        raise WordError("terminal candidates need a non-trivial right side")
    m = len(u)
    inv = u.swapcase()
    results = []
    step = {}  # the signed edge map (vertex, letter) -> vertex, shared by all branches
    # Visits (i, s, v, n, join): the branch reading letter i - 1 from s to v
    # (s is None at the root), over n vertices, ``join`` being the first
    # join's two steps or None.  Undo records (key, back): a branch's two steps.
    stack = [(0, None, 0, 1, None)]
    while stack:
        entry = stack.pop()
        if len(entry) == 2:
            del step[entry[0]], step[entry[1]]
            continue
        i, s, v, n, join = entry
        if s is not None:
            step[s, u[i - 1]] = v
            step[v, inv[i - 1]] = s
        while i < m and (nxt := step.get((v, u[i]))) is not None:
            v = nxt
            i += 1
        if i == m:
            continue
        c, back = u[i], inv[i]
        for t in (0,) if i == m - 1 else range(n + 1):
            if (t, back) in step:
                continue
            steps = (v, c), (t, back)
            if t == n or join is None:  # an opening or the first join
                stack.append(steps)
                stack.append((i + 1, v, t, n + (t == n), join if t == n else steps))
                continue
            # The second join: close it by following the rest of u.
            step[v, c] = t
            step[t, back] = v
            j, end = i + 1, t
            while j < m and (nxt := step.get((end, u[j]))) is not None:
                end = nxt
                j += 1
            if j == m and end == 0:
                (f1, b1), (f2, b2) = join, steps
                x = c1 = c2 = 0
                for letter in u:  # count u's signed crossings of the two joins
                    key = (x, letter)
                    c1 += (key == f1) - (key == b1)
                    c2 += (key == f2) - (key == b2)
                    x = step[key]
                if gcd(c1, c2) == sums_gcd:
                    basis = CoreGraph(eq.alphabet, step).canonical_basis()
                    results.append((basis.generators, basis.express(u)))
            del step[v, c], step[t, back]
    results.sort(key=lambda item: pair_key(item[0]))
    return tuple(results)


def orbit_walk(seed: Pair, gens, rhs: str) -> set[Pair]:
    """The pairs reached from ``seed`` inside the ball of total length
    ``max(2|u| + 4, |seed|)``, ``u`` being the right side ``rhs``.

    A breadth-first search applies every canonical generator in ``gens`` and
    its inverse to each pair reached, but for the inverse of the action that
    reached it, which leads back to its parent.  ``seed`` must solve ``w = u``
    for the left side ``w`` that ``gens`` fix, so that ``c = inner(w)`` acts
    on every pair reached as conjugation by ``u``.  The ball is finite, so
    the walk ends.
    """
    ball = max(2 * len(rhs) + 4, len(seed[0]) + len(seed[1]))
    actions = _actions(gens)
    rhs_values = _rhs_values(rhs)
    queue = [(seed, -1)]  # each pair with the action that leads back to its parent
    visited = {seed}
    for pair, back in queue:  # the list grows while it is walked: breadth first
        values = _values(pair) | rhs_values
        for i, images in enumerate(actions):
            if i == back:
                continue
            new = _act(values, images, ball)
            if new is None or new in visited:
                continue
            visited.add(new)
            queue.append((new, (i + len(gens)) % len(actions)))
    return visited


def descend(seed: Pair, gens, rhs: str) -> Pair:
    """The least pair of the orbit of ``seed`` under ``gens``, by descent.

    Each generator and inverse is applied with ``_act``'s ball set to the
    current total length, and the descent moves to the ShortLex-least
    strictly shorter image; with none, the plateau of equal total length is
    walked breadth first until a pair has one.  A plateau with none ends the
    descent at its least pair.  This is Whitehead's peak reduction, measured,
    not proved, to reach the least pair of ``orbit_walk``.  ``seed`` must
    solve ``w = u``, ``u`` being ``rhs``.  No step lengthens a pair, so no
    ball is needed.
    """
    actions = _actions(gens)
    rhs_values = _rhs_values(rhs)
    pair = seed
    while True:
        total = len(pair[0]) + len(pair[1])
        plateau, seen, shorter = [pair], {pair}, []
        for node in plateau:  # the list grows while it is walked: breadth first
            values = _values(node) | rhs_values
            for images in actions:
                new = _act(values, images, total)
                if new is None or new in seen:
                    continue
                seen.add(new)
                if len(new[0]) + len(new[1]) < total:
                    shorter.append(new)
                else:
                    plateau.append(new)
            if shorter:
                break
        if not shorter:
            return min(plateau, key=pair_key)
        pair = min(shorter, key=pair_key)


def minimal_rank2_solutions(
    eq: Equation, gens: tuple[CanonicalGenerator, ...], level: MinimalLevel,
) -> tuple[Pair, ...]:
    """Minimal rank-two solutions: one per candidate subgroup whose rewritten
    right side lies in the orbit of the left side, sorted by ``pair_key``.

    The walk yields only the candidates whose rewritten right side's
    exponent sums have the gcd ``level.gcd``, the first test of
    ``level.carry``.  Each candidate's rewritten right side is looked up
    on ``level``, the minimal level of the left side's orbit that describe
    built; a hit carries the left side to it, and precomposing the basis
    with that automorphism gives a seed.  ``descend`` carries the seed to
    the least pair of its orbit under the canonical generators.
    Precomposing with an automorphism keeps ``<g1, g2>``, so the orbits of
    distinct candidates never meet.  Seeds and minimal pairs are both
    checked against the equation.
    """
    reps = []
    for pair, rewritten in terminal_candidates(eq, level.gcd):
        carried = level.carry(rewritten)
        if carried is None:
            continue
        seed = _act(_values(pair), (carried.image_x, carried.image_y))
        if not eq.holds_for(*seed):
            raise AssertionError("terminal candidate produced a non-solution")
        least = descend(seed, gens, eq.rhs)
        if not eq.holds_for(*least):
            raise AssertionError("descent produced a non-solution")
        reps.append(least)
    return tuple(sorted(reps, key=pair_key))


def describe_variety(eq: Equation, hnn_max_bases: int = HNN_MAX_BASES) -> VarietyDescription:
    """Full description of the solution set of one equation.

    One ``LeftSide`` of ``w`` serves every step.  A trivial right side reads
    only the exponent sums of ``w``.  A proper power ``v^n = u`` is described
    as ``v = u^(1/n)``, the ``reduced`` equation, over ``left.root``.  The
    primitivity test reads ``left.primitive``; the jsj step reads
    ``left.classification`` and ``left.generators``, and every candidate's
    lookup reads ``left.level``."""
    left = LeftSide(eq.lhs, hnn_max_bases)
    # Before the primitivity test: a proper power v^n, n >= 2, is never primitive.
    rhs = eq.rhs if left.power == 1 else kth_root(eq.rhs, left.power)
    reduced = Equation(eq.alphabet, left.root, rhs) if left.power > 1 and rhs else eq
    described = partial(VarietyDescription, equation=eq, reduced=reduced, status=STATUS_OK)

    if not eq.rhs:
        return described(kind=KIND_TRIVIAL, formula=FORMULA_KERNEL, trivial=solve_trivial_rhs(eq))
    if rhs is None:
        return described(kind=KIND_EMPTY, formula=FORMULA_EMPTY,
                         note="the right side has no root matching the left side's power")

    if left.primitive is not None:
        family = ParametricFamily(aut=left.primitive)
        if not reduced.holds_for(*family.member(rhs, "")):
            raise AssertionError("parametric family failed verification")
        return described(kind=KIND_PARAMETRIC, formula=FORMULA_PARAMETRIC, parametric=family)

    family = rank1_family(reduced)
    if primitive_root(rhs)[1] > 1:
        if family.is_empty():
            return described(kind=KIND_EMPTY, formula=FORMULA_EMPTY, rank1=family,
                             note="the power lattice is empty and no non-commuting solutions exist")
        return described(kind=KIND_RANK1_ONLY, formula=FORMULA_POWER, rank1=family)

    cls = left.classification
    if cls.kind == CASE_UNRESOLVED:
        return described(status=STATUS_UNRESOLVED, kind=KIND_JSJ, formula="", note=cls.note,
                         classification=cls, rank1=family)
    return described(kind=KIND_JSJ, formula=_FORMULA_BY_CASE[cls.kind], classification=cls,
                     generators=left.generators, rank1=family,
                     minimal=minimal_rank2_solutions(reduced, left.generators, left.level))


# ---------------------------------------------------------------------------
# Generation of further solutions from a description


def _checked(eq: Equation, pair: Pair) -> Pair:
    """``pair`` once it solves ``eq``.  Every pair checked here is already
    reduced: it comes from ``_act``, ``power`` or ``evaluate``."""
    if not eq.holds_for(*pair):
        raise AssertionError("generated pair failed verification against the equation")
    return pair


def generate_rank1(desc: VarietyDescription, n: int) -> Pair:
    if desc.rank1 is None or desc.rank1.is_empty():
        raise WordError("this description has no commuting-solution family")
    return _checked(desc.reduced, desc.rank1.member(n))


def generate_trivial(desc: VarietyDescription, root: str, n1: int, n2: int) -> Pair:
    if desc.trivial is None:
        raise WordError("this description has no trivial-right-side family")
    root = reduce_word(desc.reduced.alphabet.check_word(root))
    return _checked(desc.reduced, desc.trivial.member(root, n1, n2))


def generate_parametric(desc: VarietyDescription, z: str) -> Pair:
    if desc.parametric is None:
        raise WordError("this description has no parametric family")
    z = reduce_word(desc.reduced.alphabet.check_word(z))
    return _checked(desc.reduced, desc.parametric.member(desc.reduced.rhs, z))


def _minimal_solution(desc: VarietyDescription, index: int) -> Pair:
    if not desc.minimal:
        raise WordError("this description has no rank-two solutions")
    if not 0 <= index < len(desc.minimal):
        raise WordError(f"solution index {index} out of range 0..{len(desc.minimal) - 1}")
    return desc.minimal[index]


def generate_conjugates(desc: VarietyDescription, index: int, n: int) -> Pair:
    """Item for every case: conjugate a minimal solution by ``u^n``, the orbit word ``c^n``."""
    return generate_orbit(desc, index, ("c" if n >= 0 else "C") * abs(n))


def generate_hnn(desc: VarietyDescription, index: int, n: int, m: int) -> Pair:
    """Edge-splitting item: the orbit word ``t^m c^n`` applied to a minimal
    solution.

    With p, t the splitting basis evaluated at the solution, ``t^m``
    substitutes ``t -> t q^m`` and ``c^n`` conjugates both by ``u^n``; the
    two commute, and ``generate_orbit`` applies ``c`` as that conjugation.
    """
    if desc.classification is None or desc.classification.kind != CASE_HNN:
        raise WordError("this description has no edge-splitting family")
    sigma = ("t" if m >= 0 else "T") * abs(m) + ("c" if n >= 0 else "C") * abs(n)
    return generate_orbit(desc, index, sigma)


def generate_orbit(desc: VarietyDescription, index: int, sigma: str) -> Pair:
    """Apply a word in the canonical generators to a minimal solution.

    ``sigma`` is spelled with the generator symbols (inverses by upper case)
    and is applied left to right, each letter by ``_act``.
    """
    sol = _minimal_solution(desc, index)
    rhs_values = _rhs_values(desc.reduced.rhs)
    for c in sigma:
        images = _images(desc.generator_by_symbol(c.lower()), c.isupper())
        sol = _act(_values(sol) | rhs_values, images)
    return _checked(desc.reduced, sol)


# ---------------------------------------------------------------------------
# The two-level worked family


FIRST_LEVEL_LHS = multiply(power(commutator("x", "y"), 2), "x")


def mega_word() -> str:
    """The nested test word [a^-1 b a [b, a] [x,y]^2 x, a] over letters and variables."""
    head = multiply("Aba", commutator("b", "a"), FIRST_LEVEL_LHS)
    return commutator(head, "a")


def two_level_base(n: int) -> Pair:
    return (multiply("B", power("a", n)), "Bab")


def two_level_conjugator(n: int) -> str:
    base = two_level_base(n)
    return evaluate(FIRST_LEVEL_LHS, *base)


def two_level_member(n: int, m: int) -> Pair:
    """The (n, m) member: the base pair conjugated by the m-th power of the
    value the first-level word takes on it."""
    base = two_level_base(n)
    c = power(two_level_conjugator(n), m)
    return (conjugate(base[0], c), conjugate(base[1], c))


def verify_two_level(g1: str, g2: str) -> bool:
    return evaluate(mega_word(), g1, g2) == ""
