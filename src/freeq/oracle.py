"""Exhaustive enumeration and coverage certification for equation solutions.

The brute-force enumerator is the independent route against which the
descriptive machinery is certified: it finds every pair of reduced coefficient
words inside a length ball that solves the equation, tagging each with the
rank of the subgroup the pair generates.  The left side picks one of three
routes; each walks the values of a kept variable ``s`` once and names the
values of the other variable ``z`` to test, using only word arithmetic, and
one loop confirms every candidate pair:

- single run, ``s^a z^k s^b``: for each value of ``s``, ``z`` is the unique
  k-th root of ``s^-a u s^-b``, found by one period test on the peeled core;
- conjugate pair, ``s^a z^e s^b z^-e s^c`` with ``e = ±1``: for each value of
  ``s``, ``z^-e`` conjugates ``s^b`` to ``s^-a u s^-c``, so the values of ``z``
  form one coset of a cyclic centralizer;
- abelianization filter: for every other left side, ``z`` ranges over the
  ball words whose exponent sums ``w_s·ab(s) + w_z·ab(z) = ab(u)`` allows.

A proper-power left side ``v^n`` first becomes ``v = r``, r being the unique
n-th root of ``u``, and ``v`` picks the route.  Every pair is confirmed on the
original equation.

``certify`` then replays a variety description against the enumeration:
every brute solution must be reproduced by the description's families
(lattice members, parameter recovery, or for a rank-two solution, the
``orbit_walk`` from the solution itself reaching a minimal solution).  The
components of the minimal solutions that lie in the base ball ``2|u| + 4``
(``VarietyDescription.orbits``, walked once per description, the first time
certify asks) are covered from the start, so only pairs outside them are
walked; that is exact, since a brute pair in such a component lies in the
base ball and its own walk would be that component.  Describe finds the
minimal solutions by descent, so these walks are also certify's independent
check of it: a minimal pair that descent got wrong leaves its orbit's brute
pairs uncovered.  Every walk stays inside a finite ball, so certify needs no
budget.  Uncovered pairs are reported in the result, never raised.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .solver import (
    KIND_EMPTY,
    KIND_JSJ,
    KIND_PARAMETRIC,
    KIND_RANK1_ONLY,
    KIND_TRIVIAL,
    STATUS_OK,
    Equation,
    Rank1Family,
    TrivialFamily,
    VarietyDescription,
    orbit_walk,
)
from .words import (
    WordError,
    conjugating_word,
    evaluate,  # not called here; bench/test_bench.py patches oracle.evaluate
    exponent_sum,
    kth_root,
    multiply,
    pair_key,
    pair_rank,
    power,
    primitive_root,
    words_upto,
)

Pair = tuple[str, str]


@dataclass(frozen=True)
class BruteForceResult:
    equation: Equation
    max_len: int
    solutions: tuple[tuple[str, str, int], ...]  # (g1, g2, subgroup rank)

    def pairs(self) -> tuple[Pair, ...]:
        return tuple((g1, g2) for g1, g2, _ in self.solutions)

    def rank_counts(self) -> tuple[int, int, int]:
        counts = [0, 0, 0]
        for _, _, rank in self.solutions:
            counts[rank] += 1
        return tuple(counts)


def _variable_runs(w: str) -> list[tuple[str, int]]:
    """Signed run-length form: [('x', 2), ('y', -1), ...]."""
    runs: list[tuple[str, int]] = []
    for c in w:
        base = c.lower()
        step = 1 if c.islower() else -1
        if runs and runs[-1][0] == base:
            runs[-1] = (base, runs[-1][1] + step)
        else:
            runs.append((base, step))
    return runs


def _single_run_shape(w: str) -> tuple[str, int, int, int] | None:
    """Detect the shape s^a z^k s^b (one run of the variable z) in a reduced
    ``w``; returns (z, a, k, b) or None."""
    runs = _variable_runs(w)
    for z, s in (("y", "x"), ("x", "y")):
        inner = [k for v, k in runs if v == z]
        if len(inner) == 1:
            # Runs alternate between the two variables, so the z-run is
            # flanked by at most one s-run on each side.
            a = runs[0][1] if runs[0][0] == s else 0
            b = runs[-1][1] if runs[-1][0] == s else 0
            return z, a, inner[0], b
    return None


def _flank(g: str, a: int, u: str, b: int) -> str:
    """``g^-a · u · g^-b`` for reduced ``g`` and ``u``.  ``words.power`` spells
    each power reduced, so the product cancels only at its two junctions."""
    word = power(g, -a)
    for w in (u, power(g, -b)):
        j, n = 0, min(len(word), len(w))
        while j < n and word[-1 - j] == w[j].swapcase():
            j += 1
        word = word[:len(word) - j] + w[j:]
    return word


def _single_run_candidates(eq: Equation, shape, max_len: int, ball: list[str]):
    """Candidates for s^a z^k s^b = u: z is the unique k-th root of g^-a u g^-b."""
    z, a, k, b = shape
    for g in ball:
        root = kth_root(_flank(g, a, eq.rhs, b), k)
        if root is not None and len(root) <= max_len:
            yield (g, root) if z == "y" else (root, g)


def _conjugate_pair_shape(w: str) -> tuple[str, int, int, int, int] | None:
    """Detect the shape s^a z^e s^b z^-e s^c with e = ±1 (the variable z
    occurs exactly twice, as single letters of opposite sign) in a reduced
    ``w``; returns (z, a, e, b, c) or None."""
    runs = _variable_runs(w)
    for z, s in (("y", "x"), ("x", "y")):
        inner = [k for v, k in runs if v == z]
        if len(inner) != 2 or abs(inner[0]) != 1 or inner[1] != -inner[0]:
            continue
        # Runs alternate between the two variables, so the z-runs are
        # separated by exactly one s-run and possibly flanked by one more each.
        outer = [k for v, k in runs if v == s]
        a = outer.pop(0) if runs[0][0] == s else 0
        c = outer.pop() if runs[-1][0] == s else 0
        return z, a, inner[0], outer[0], c
    return None


def _conjugate_pair_candidates(eq: Equation, shape, max_len: int, ball: list[str]):
    """Candidates for s^a z^e s^b z^-e s^c = u, by conjugacy.  With
    B = g^b and V = g^-a u g^-c, h' = z^-e satisfies h'^-1 B h' = V.  For
    B != 1 the solutions are h' = r^k h, where h = conjugating_word(B, V) and
    r is the primitive root of B, whose cyclic group is the centralizer of B.
    As |r^k h| >= |k| - |h|, the sweep |k| <= max_len + |h| finds every z in
    the ball."""
    z, a, e, b, c = shape
    for g in ball:
        target = _flank(g, a, eq.rhs, c)
        if not g:
            others = () if target else ball
        else:
            base = power(g, b)
            h = conjugating_word(base, target)
            if h is None:
                continue
            root = primitive_root(base)[0]
            span = max_len + len(h)
            others = (power(multiply(power(root, k), h), -e) for k in range(-span, span + 1))
        for other in others:
            if len(other) <= max_len:
                yield (g, other) if z == "y" else (other, g)


def _abelian_candidates(eq: Equation, shape, max_len: int, ball: list[str]):
    """Candidates for every other left side, by the abelianization ``ab``
    (the exponent sums over the coefficient letters): ``w_s·ab(g) + w_z·ab(z)
    = ab(u)``, so the value g of s fixes the one bucket of the ball that z
    comes from.  When both exponent sums are zero, every pair is a candidate
    if ``ab(u) = 0``, and none otherwise."""
    z, ws, wz = shape
    letters = eq.alphabet.letters

    def ab(v: str) -> tuple[int, ...]:
        return tuple(exponent_sum(v, c) for c in letters)

    target = ab(eq.rhs)
    if wz == 0:
        if not any(target):
            yield from itertools.product(ball, repeat=2)
        return
    keys = [ab(v) for v in ball]
    buckets: dict[tuple[int, ...], list[str]] = {}
    for v, key in zip(ball, keys):
        buckets.setdefault(key, []).append(v)
    for g, key in zip(ball, keys):
        need = [t - ws * n for t, n in zip(target, key)]
        if not any(n % wz for n in need):
            for other in buckets.get(tuple(n // wz for n in need), ()):
                yield (g, other) if z == "y" else (other, g)


def _candidates(eq: Equation, max_len: int, ball: list[str]):
    """The pairs (g1, g2) in the ball that the left side's route names.  Each
    route takes the shape (z, ...), z being the eliminated variable.  A
    proper-power left side names no pair when u has no n-th root."""
    if eq.lhs:
        root, n = primitive_root(eq.lhs)
        if n > 1:
            rhs = kth_root(eq.rhs, n)
            if rhs is None:
                return ()
            eq = Equation(eq.alphabet, root, rhs)
    for detect, candidates in ((_single_run_shape, _single_run_candidates),
                               (_conjugate_pair_shape, _conjugate_pair_candidates)):
        shape = detect(eq.lhs)
        if shape is not None:
            return candidates(eq, shape, max_len, ball)
    wx, wy = exponent_sum(eq.lhs, "x"), exponent_sum(eq.lhs, "y")
    # z is y unless only x has a non-zero exponent sum; the shape is (z, w_s, w_z).
    shape = ("x", wy, wx) if wy == 0 and wx != 0 else ("y", wx, wy)
    return _abelian_candidates(eq, shape, max_len, ball)


def brute_force_solutions(eq: Equation, max_len: int) -> BruteForceResult:
    """All solutions with both coordinates of length at most ``max_len``.

    The left side's route (see the module docstring) names, for each value
    g of a kept variable s, the values of the other variable z to test; one
    loop confirms each candidate pair with ``Equation.holds_for``.
    """
    if max_len < 0:
        raise WordError("the ball radius must be non-negative")
    ball = list(words_upto(eq.alphabet, max_len))
    pairs = {pair for pair in _candidates(eq, max_len, ball) if eq.holds_for(*pair)}
    solutions = tuple((g1, g2, pair_rank(g1, g2)) for g1, g2 in sorted(pairs, key=pair_key))
    return BruteForceResult(equation=eq, max_len=max_len, solutions=solutions)


def _rank1_in_ball(family: Rank1Family | None, max_len: int) -> set:
    # A reduced power r^n has length |n|*|core(r)| + 2|conjugator|, so |n| can
    # never exceed the ball radius; sweeping that far and filtering by actual
    # length is exact even for cyclically non-reduced roots.
    out: set[Pair] = set()
    if family is None or family.is_empty():
        return out
    span = max_len + abs(family.base[0]) + abs(family.base[1]) + 2
    for n in range(-span, span + 1):
        n1, n2 = family.exponents(n)
        g1, g2 = power(family.root, n1), power(family.root, n2)
        if len(g1) <= max_len and len(g2) <= max_len:
            out.add((g1, g2))
    return out


def _trivial_in_ball(family: TrivialFamily, eq: Equation, max_len: int) -> set:
    out = {("", "")}
    for r in words_upto(eq.alphabet, max_len):
        if not r or primitive_root(r)[1] > 1:
            continue
        for n1 in range(-max_len, max_len + 1):
            for n2 in range(-max_len, max_len + 1):
                if family.contains_exponents(n1, n2):
                    g1, g2 = power(r, n1), power(r, n2)
                    if len(g1) <= max_len and len(g2) <= max_len:
                        out.add((g1, g2))
    return out


@dataclass(frozen=True)
class CertifyReport:
    equation: Equation
    description_kind: str
    formula: str
    max_len: int
    total_solutions: int
    rank_counts: tuple[int, int, int]
    covered: bool
    uncovered: tuple[Pair, ...]
    family_exact: bool | None


def certify(eq: Equation, desc: VarietyDescription, max_len: int) -> CertifyReport:
    """Check that a description covers every brute-force solution in a ball.

    Coverage is per the description's kind: lattice membership for the
    commuting families, parameter recovery for a primitive left side, and for
    a rank-two P, the ``orbit_walk`` from P reaching a minimal M
    (the path is a word σ in the generators with ``P = M·σ⁻¹``).  A walk that
    reaches one covers all it visits.  Each walk stays in a finite ball, so
    it ends.  The report lists uncovered pairs verbatim.

    The components of the minimal solutions (``desc.orbits``, walked on
    the first certify of a description) are covered before any other walk.
    Each was walked in the base ball ``2|u| + 4``, the smallest ball any
    brute pair walks in, so the walk from any of its pairs is exactly that
    component: seeding changes no verdict.
    """
    if desc.status != STATUS_OK:
        raise WordError("cannot certify an unresolved description")
    brute = brute_force_solutions(eq, max_len)
    pairs = brute.pairs()

    family_exact: bool | None = None
    if desc.kind == KIND_EMPTY:
        covered_set = set()
    elif desc.kind == KIND_TRIVIAL:
        covered_set = _trivial_in_ball(desc.trivial, eq, max_len)
        family_exact = covered_set == set(pairs)
    elif desc.kind == KIND_PARAMETRIC:
        covered_set = set()
        for g1, g2 in pairs:
            z = desc.parametric.parameter_of(g1, g2)
            if desc.parametric.member(desc.reduced.rhs, z) == (g1, g2):
                covered_set.add((g1, g2))
    elif desc.kind == KIND_RANK1_ONLY:
        covered_set = _rank1_in_ball(desc.rank1, max_len)
    elif desc.kind == KIND_JSJ:
        covered_set = _rank1_in_ball(desc.rank1, max_len)
        minimal = set(desc.minimal)
        for orbit in desc.orbits:
            covered_set |= orbit
        for g1, g2, rank in brute.solutions:
            if rank == 2 and minimal and (g1, g2) not in covered_set:
                walk = orbit_walk((g1, g2), desc.generators, desc.reduced.rhs)
                if not minimal.isdisjoint(walk):
                    covered_set |= walk
    else:
        raise WordError(f"cannot certify a description of kind {desc.kind!r}")

    uncovered = tuple(p for p in pairs if p not in covered_set)
    return CertifyReport(
        equation=eq,
        description_kind=desc.kind,
        formula=desc.formula,
        max_len=max_len,
        total_solutions=len(pairs),
        rank_counts=brute.rank_counts(),
        covered=not uncovered,
        uncovered=uncovered,
        family_exact=family_exact,
    )
