"""Exhaustive enumeration and coverage certification for equation solutions.

The brute-force enumerator is the independent route against which the
descriptive machinery is certified: it finds every pair of reduced coefficient
words inside a length ball that solves the equation, tagging each with the
rank of the subgroup the pair generates.  The left side picks one of three
routes; each walks the values of a kept variable ``s`` once and names the
values of the other variable ``z`` to test, using only word arithmetic, and
one loop confirms every candidate pair.  Every route first keeps only the
values the abelianized equation ``w_s·ab(s) + w_z·ab(z) = ab(u)`` allows,
``ab`` being the exponent sums over the coefficient letters; ``ab`` of a
ball word is computed only where the equation can remove some values:

- single run, ``s^a z^k s^b``: only the values of ``s`` with k dividing
  ``ab(u) - (a+b)·ab(s)`` are kept (all or none of them when k divides
  a+b); for each, ``z`` is the unique k-th root of ``s^-a u s^-b``, found by
  one period test on the peeled core;
- conjugate pair, ``s^a z^e s^b z^-e s^c`` with ``e = ±1``: only the values
  of ``s`` with ``(a+b+c)·ab(s) = ab(u)`` are kept; for each, ``z^-e``
  conjugates ``s^b`` to ``s^-a u s^-c``, so the values of ``z`` form one
  coset of a cyclic centralizer;
- abelianization filter: for every other left side, ``z`` ranges over the
  ball words whose exponent sums the abelianized equation allows.

Every sweep over the powers of a root ``r`` is bounded by its cyclic length,
as a reduced ``r^n`` has length ``|n|·|core r| + 2|conj r|``: the centralizer
coset's sweep and the family sweeps of ``certify`` stop at the last power
that can fit in the ball.

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
    cyclic_length,
    cyclic_reduce,
    evaluate,  # not called here; bench/test_bench.py patches oracle.evaluate
    exponent_sum,
    invert,
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
    """Candidates for s^a z^k s^b = u: z is the unique k-th root of g^-a u g^-b.
    The abelianized equation ``(a+b)·ab(g) + k·ab(z) = ab(u)`` keeps only the
    g with k dividing ``ab(u) - (a+b)·ab(g)``, tested once per bucket of the
    ball by ``ab``.  When k divides a+b, that holds for every g or for none,
    so the ball is not bucketed."""
    z, a, k, b = shape
    letters = eq.alphabet.letters
    ab_u = _ab(eq.rhs, letters)
    if (a + b) % k == 0:
        values = () if any(t % k for t in ab_u) else ball
    else:
        values = [g for key, bucket in _ab_buckets(ball, letters).items()
                  if not any((t - (a + b) * n) % k for t, n in zip(ab_u, key))
                  for g in bucket]
    for g in values:
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
    """Candidates for s^a z^e s^b z^-e s^c = u, by conjugacy.  The
    abelianized equation is ``(a+b+c)·ab(g) = ab(u)``, so only the g with
    ``ab(g) = ab(u) / (a+b+c)`` are values of s: every g or none when
    a+b+c = 0, and none when a+b+c does not divide ab(u).
    With B = g^b and V = g^-a u g^-c, h' = z^-e satisfies h'^-1 B h' = V.
    For B != 1 the solutions are h' = r^k h, where h = conjugating_word(B, V)
    and r is the primitive root of B, whose cyclic group is the centralizer
    of B.  As |r^k h| >= |k|·|core r| - |h|, the sweep
    |k| <= (max_len + |h|) // |core r| finds every z in the ball."""
    z, a, e, b, c = shape
    letters = eq.alphabet.letters
    ab_u = _ab(eq.rhs, letters)
    n = a + b + c
    if n == 0 or any(t % n for t in ab_u):
        values = () if any(ab_u) else ball
    else:
        key = tuple(t // n for t in ab_u)
        values = [g for g in ball if _ab(g, letters) == key]
    for g in values:
        target = _flank(g, a, eq.rhs, c)
        if not g:
            others = () if target else ball
        else:
            base = power(g, b)
            h = conjugating_word(base, target)
            if h is None:
                continue
            root = primitive_root(base)[0]
            span = (max_len + len(h)) // cyclic_length(root)
            others = (power(multiply(power(root, k), h), -e) for k in range(-span, span + 1))
        for other in others:
            if len(other) <= max_len:
                yield (g, other) if z == "y" else (other, g)


def _ab(v: str, letters: str) -> tuple[int, ...]:
    """The abelianization of ``v``: its exponent sums over the lowercase
    ``letters``, as ``exponent_sum`` counts them."""
    return tuple([v.count(c) - v.count(c.upper()) for c in letters])


def _ab_buckets(ball: list[str], letters: str) -> dict[tuple[int, ...], list[str]]:
    """The ball's words grouped by abelianization, each group in ball order."""
    buckets: dict[tuple[int, ...], list[str]] = {}
    for v in ball:
        buckets.setdefault(_ab(v, letters), []).append(v)
    return buckets


def _abelian_candidates(eq: Equation, shape, max_len: int, ball: list[str]):
    """Candidates for every other left side, by the abelianized equation
    ``w_s·ab(g) + w_z·ab(z) = ab(u)``: the value g of s fixes the one bucket
    of the ball that z comes from.  When both exponent sums are zero, every
    pair is a candidate if ``ab(u) = 0``, and none otherwise."""
    z, ws, wz = shape
    ab_u = _ab(eq.rhs, eq.alphabet.letters)
    if wz == 0:
        if not any(ab_u):
            yield from itertools.product(ball, repeat=2)
        return
    buckets = _ab_buckets(ball, eq.alphabet.letters)
    for key, values in buckets.items():
        need = [t - ws * n for t, n in zip(ab_u, key)]
        if any(n % wz for n in need):
            continue
        others = buckets.get(tuple(n // wz for n in need), ())
        for g in values:
            for other in others:
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


def _power_span(r: str, max_len: int) -> int:
    """The largest |n| with |r^n| <= max_len, for a reduced r != 1 (negative
    when only r^0 fits): r^n, n != 0, has length |n|·|core r| + 2|conj r|."""
    core, conj = cyclic_reduce(r)
    return (max_len - 2 * len(conj)) // len(core)


def _rank1_in_ball(family: Rank1Family | None, max_len: int) -> set:
    # Both exponents (p + n·dx, q + n·dy) of a member in the ball are 0 or at
    # most m = _power_span(root) in size, and one of dx, dy is non-zero, so
    # |n| <= max(m, 0) + |p| + |q|; filtering that sweep by length is exact.
    out: set[Pair] = set()
    if family is None or family.is_empty():
        return out
    span = max(_power_span(family.root, max_len), 0) + abs(family.base[0]) + abs(family.base[1])
    for n in range(-span, span + 1):
        n1, n2 = family.exponents(n)
        g1, g2 = power(family.root, n1), power(family.root, n2)
        if len(g1) <= max_len and len(g2) <= max_len:
            out.add((g1, g2))
    return out


def _trivial_in_ball(family: TrivialFamily, eq: Equation, max_len: int) -> set:
    # The members (r^n1, r^n2) over primitive roots r, the lesser of r and
    # r^-1 only, as the lattice is symmetric: every exponent pair for two
    # generators, the multiples k·(d1, d2) with |k·d1|, |k·d2| <= span for one.
    out = {("", "")}
    for r in words_upto(eq.alphabet, max_len):
        if not r or invert(r) < r or primitive_root(r)[1] > 1:
            continue
        span = _power_span(r, max_len)
        if len(family.generators) == 2:
            powers = [power(r, n) for n in range(-span, span + 1)]
            out.update(itertools.product(powers, repeat=2))
            continue
        (d1, d2), = family.generators
        m = span // max(abs(d1), abs(d2))
        out.update((power(r, k * d1), power(r, k * d2)) for k in range(-m, m + 1))
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
