"""Exhaustive enumeration and coverage certification for equation solutions.

The brute-force enumerator is the independent route against which the
descriptive machinery is certified: it finds every pair of reduced coefficient
words inside a length ball that solves the equation, tagging each with the
rank of the subgroup the pair generates.  The left side picks one of three
routes; each walks the values of a kept variable ``s`` once and names the
values of the other variable ``z`` to test, using only word arithmetic, and
one loop confirms every candidate pair.  A solution satisfies the abelianized
equation ``w_s·ab(s) + w_z·ab(z) = ab(u)``, ``ab`` being the exponent sums
over the coefficient letters, and ``_candidates`` alone applies it: before
any route lists a value, the equation is ruled out unless ``gcd(w_s, w_z)``
divides ``ab(u)`` (``ab(u) = 0`` when both sums are zero), and each route
solves ``z`` only for the values g of ``s`` with ``ab(u) - w_s·ab(g)`` in
``w_z·Z^n`` (0 when ``w_z = 0``), which is every value, with no ``ab``
computed, when ``w_z`` divides ``w_s``:

- single run, ``s^a z^k s^b``: the values of ``s`` are the ball words, or
  only those the cancellation bound below allows, or only the powers of u's
  root when both cores are read off u; for each, ``z`` is the unique k-th
  root of ``s^-a u s^-b``, found by one period test on the peeled core, and
  the reads name pairs of their own;
- conjugate pair, ``s^a z^e s^b z^-e s^c`` with ``e = ±1``: for each value
  of ``s``, ``z^-e`` conjugates ``s^b`` to ``s^-a u s^-c``, so the values of
  ``z`` form one coset of a cyclic centralizer;
- full scan: for every other left side, ``z`` ranges over the one bucket of
  ball words, grouped by ``ab``, that the value of ``s`` leaves it.

Every sweep over the powers of a root ``r`` is bounded by its cyclic length,
as a reduced ``r^n`` has length ``|n|·|core r| + 2|conj r|``: the centralizer
coset's sweep and the family sweeps of ``certify`` stop at the last power
that can fit in the ball.

The cancellation bound (after Lyndon and Schützenberger, *The equation
a^M = b^N c^P in a free group*, 1962).  Write ``‖v‖`` for the cyclic length.
If g and z do not commute, then
``‖g^n z^k‖ >= (|n|-2)·‖g‖ + (|k|-2)·‖z‖ + 2·gcd(‖g‖, ‖z‖) + 2``.
Proof: with ``g = c^-1 h c`` and ``z = d^-1 r d``, h and r cyclically
reduced, ``g^n z^k`` is conjugate to ``h^n · f^-1 r^k f``, ``f = d c^-1``.
Cyclic reduction cancels letters only at the two junctions of h^n with the
rest, and the letters cancelled there, read across both junctions, form one
common factor of the periodic words ``h^∞`` and ``r^∓∞``.  By the theorem of
Fine and Wilf (*Uniqueness theorems for periodic functions*, 1965), a common
factor of length at least ``|h| + |r| - gcd(|h|, |r|)`` has period
``gcd(|h|, |r|)``; its end is aligned with a period of both words, so h and
the matching conjugate of r would be powers of one word, and g and z would
commute.  So at most ``|h| + |r| - gcd(|h|, |r|) - 1`` letter pairs cancel,
which is the bound.  It is sharp: ``a^n b^k`` cancels nothing.  The tests
check it on every non-commuting pair of the radius-4 ball and on random
pairs built to cancel much.

A single run ``s^a z^k s^b = u`` with ``n = a+b`` is conjugate, by ``g^b``,
to ``g^n z^k = u' = g^b u g^-b``, so ``‖u‖ = ‖g^n z^k‖``.  A solution with
g and z commuting lies in one cyclic group, which holds ``u``, so g is a
power of u's primitive root.  Three facts bound the other solutions when
``|n| >= 2``, ``|k| >= 2`` and ``u != 1``:

- u a proper power: there are none.  ``u'`` is a proper power too, and
  Lyndon and Schützenberger (1962) show that ``a^M = b^N c^P`` with
  ``M, N, P >= 2`` forces a, b and c to commute; so g commutes with ``u'``,
  hence with u, and lies in the cyclic group of u's root.
  ``xxyy = aaaa`` at L=8 tests the 17 powers of ``a`` in the ball, not its
  13 121 words;
- otherwise, when ``|n| >= 3`` and ``|k| = 2``: a solution has
  ``‖z‖ >= 1`` and a gcd of at least 1, so
  ``‖g‖ <= B_g = (‖u‖ - |k| - 2) // (|n| - 2)``.  Brute force tests the
  ball words of cyclic length up to B_g, spelled as ``c^-1 h c`` without
  listing the ball, and the longer powers of the root in the ball:
  ``xxxyy = aaabb`` at L=9 tests 164 of the ball's 39 365 words;
- otherwise, when ``|n| >= 3`` and ``|k| >= 3``: the bound holds both ways,
  ``‖g‖ <= B_g`` and ``‖z‖ <= B_z = (‖u‖ - |n| - 2) // (|k| - 2)``, and
  brute force lists no value of s but the root's powers.  It reads both
  cores off the rotations R of u's cyclic core.  The h-side read takes each
  ``p <= B_g`` with ``H = R[:p]`` cyclically reduced; ``E = H^|n|`` spells
  h^n for h = H or H^-1 by the sign of n, and when R begins with at least
  ``(|n|-2)·p + 2`` letters of E, the k-th root Y of ``E^-1 R``, if any,
  gives ``h^n Y^k = R``.  The r-side read swaps (n, B_g) with (k, B_z) and
  gives ``r^k X^n = R``.  ``xxxyyy = aaabbb`` makes 4 reads at every L, and
  tests 3 pairs at L=9 and 9 at L=30, all of them solutions.

  Why the reads find every solution: with g, z, h, r and f as in the
  lemma, ``c u c^-1 = h^a f^-1 r^k f h^b`` is conjugate to
  ``h^n f^-1 r^k f``.  While f != 1 and a junction of that word cancels,
  rotating h or r by one letter moves a letter of f into c or d.  If f
  stays != 1, nothing cancels: the word is a rotation R that begins with
  h^n, which the h-side read with p = |h| sees.  If f = 1, rotating h and
  r alike (a conjugation of both) by the letters cancelled in front of h^n
  moves every cancellation behind it.  The lemma lets at most
  ``|h| + |r| - 2`` letter pairs cancel, each taking one letter of h^n
  while r^k lasts, and ``‖R‖`` alone is long enough once r^k is used up;
  so R begins with at least ``(|n|-2)·|h| + 2`` letters of h^n when
  ``|h| >= |r|``.  Otherwise the r-side read sees as much of r^k.  Both
  need ``|n|, |k| >= 3``.  When ``|k| = 2`` and ``|r| > |h|``, as few as
  ``|r| - |h| + 2`` letters of r^k may survive, less than one period, so
  neither side reads the cores and the short-core scan stays.

The single runs that still test the whole ball are those with ``|k| = 1``,
``u = 1``, ``|n| <= 1``, or ``|n| = 2`` and u not a proper power (e.g.
``xxyy = aabb``).

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
from math import gcd

from .autf2 import _act, _values
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
    conjugate,
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


def _single_run_candidates(eq: Equation, shape, max_len: int, keep):
    """Candidates for s^a z^k s^b = u: z is the unique k-th root of g^-a u g^-b.

    The values g of s, when ``|a+b| >= 2``, ``|k| >= 2`` and ``u != 1`` (see
    the module docstring): the powers of u's primitive root in the ball hold
    every solution with g and z commuting, g = 1 and z = 1 included.  When u
    is a proper power there is no other: ``g^(a+b) z^k = g^b u g^-b`` is a
    proper power too, so g commutes with it, hence with u (Lyndon and
    Schützenberger 1962), and B = -1.  Otherwise, when ``|a+b| >= 3`` and
    ``|k| >= 3``, the other solutions are the pairs ``_read_pairs`` reads off
    the rotations of u's core, and B = -1 too.  When ``|a+b| >= 3`` and
    ``|k| = 2``, the cancellation bound gives
    ``‖g‖ <= B = (‖u‖ - |k| - 2) // (|a+b| - 2)`` for the others, but none
    for z, whose core the rotations of u cannot show.  The values are the
    ball words of cyclic length at most B and the powers of the root longer
    than B, two disjoint lists.  Every other shape takes the whole ball.
    Only the values ``keep`` passes are solved for z."""
    z, a, k, b = shape
    n, u = a + b, eq.rhs
    bound, read = None, ()
    if abs(n) >= 2 and abs(k) >= 2 and u:
        rho, e = primitive_root(u)
        if e > 1:
            bound = -1
        elif abs(n) >= 3 and abs(k) >= 3:
            bound, read = -1, _read_pairs(a, k, b, u, max_len)
        elif abs(n) >= 3:
            bound = min((cyclic_length(u) - abs(k) - 2) // (abs(n) - 2), max_len)
    if bound is not None:
        span = max(_power_span(rho, max_len), 0)
        values = _short_core_words(eq.alphabet, bound, max_len) + [
            power(rho, i) for i in range(-span, span + 1) if abs(i) * cyclic_length(rho) > bound]
    else:
        values = list(words_upto(eq.alphabet, max_len))
    image = power("x", -a) + "y" + power("x", -b)
    for g in keep(values):
        root = kth_root(_act(_values((g, u)), (image,))[0], k)
        if root is not None and len(root) <= max_len:
            yield g, root
    yield from read


def _read_pairs(a: int, k: int, b: int, u: str, max_len: int):
    """The solutions of ``s^a z^k s^b = u`` in the ball with s and z not
    commuting, when ``|a+b| >= 3``, ``|k| >= 3`` and u is not a proper
    power: the two-sided read of the module docstring, and a sweep over u's
    centralizer.  A read off the rotation ``R = σ u σ^-1`` names a pair
    (g', z') with ``g'^a z'^k g'^b = R``; the solutions it stands for are
    ``(g_m, z_m) = u^-m σ^-1 (g', z') σ u^m``, as ``c u c^-1 = R`` fixes c
    up to the centralizer ⟨u⟩ of u, a cyclic group as u is not a proper
    power.  Reads that give one orbit are swept once.

    The sweep bound.  In the Cayley tree, ``|w| = ‖w‖ + 2·d(1, A_w)`` for
    the axis A_w of w, so ``|g_m| = ‖g‖ + 2·d(u^m, A_g)``.  The vertices u^m
    lie ``|conj u|`` from A_u, above points ``‖u‖`` apart along it.  As
    g_0 and u do not commute, the axes share a segment J shorter than
    ``‖g‖ + ‖u‖``, or J is the foot on A_u of the bridge between them: after
    a conjugation that starts J at 1, both words are cyclically reduced and
    J spells a common prefix of g_0^±∞ and u^∞, whose first ``‖g‖ + ‖u‖``
    letters would spell both ``g_0 u`` and ``u g_0``.  The foot of 1 on A_u
    is at most ``|conj u| + (|g_0| - ‖g‖) / 2`` from J, so
    ``d(u^m, A_g) >= |m|·‖u‖ - |J| - (|g_0| - ‖g‖) / 2 - 2|conj u|`` and
    ``|g_m| >= 2|m|·‖u‖ - |g_0| - 4|conj u| - 2‖u‖ + 2``.  The same holds
    for z, so a pair in the ball has
    ``|m| <= (L + min(|g_0|, |z_0|) + 4|conj u| - 2) // (2‖u‖) + 1``."""
    n = a + b
    core, conj = cyclic_reduce(u)
    size = len(core)
    bound_g = (size - abs(k) - 2) // (abs(n) - 2)
    bound_z = (size - abs(n) - 2) // (abs(k) - 2)
    reads = []
    for i in range(size):
        rotation = core[i:] + core[:i]
        # h^n Y^k = R, so h^a (h^b Y h^-b)^k h^b = R; r^k X^n = R, so
        # X^a (X^-a r X^a)^k X^b = R.
        found = [(h, multiply(power(h, b), y, power(h, -b)))
                 for h, y in _periodic_reads(rotation, n, k, bound_g)]
        found += [(x, multiply(power(x, -a), r, power(x, a)))
                  for r, x in _periodic_reads(rotation, k, n, bound_z)]
        sigma = multiply(invert(core[:i]), conj)
        reads += [(conjugate(g, sigma), conjugate(w, sigma)) for g, w in found]
    seen = set()
    for g, w in reads:
        if (g, w) in seen:
            continue
        span = (max_len + min(len(g), len(w)) + 4 * len(conj) - 2) // (2 * size) + 1
        for m in range(-span, span + 1):
            step = power(u, m)
            pair = conjugate(g, step), conjugate(w, step)
            seen.add(pair)
            if len(pair[0]) <= max_len and len(pair[1]) <= max_len:
                yield pair


def _periodic_reads(rotation: str, e: int, f: int, bound: int):
    """The pairs ``(h, y)`` with ``h^e y^f = rotation`` for which the
    rotation starts with h^e but for at most 2|h| - 2 letters, |h| <= bound:
    h^e is spelled ``H^|e|`` with ``H = rotation[:p]`` cyclically reduced,
    and y is the f-th root of ``H^-|e| · rotation``."""
    for p in range(1, min(bound, len(rotation)) + 1):
        piece = rotation[:p]
        if piece[0] == piece[-1].swapcase():
            continue
        t, stop = p, min(len(rotation), abs(e) * p)
        while t < stop and rotation[t] == rotation[t - p]:
            t += 1
        if t < (abs(e) - 2) * p + 2:
            continue
        y = kth_root(invert((piece * abs(e))[t:]) + rotation[t:], f)
        if y is not None:
            yield (piece if e > 0 else invert(piece)), y


def _short_core_words(alphabet, bound: int, max_len: int) -> list[str]:
    """The ball words of cyclic length at most ``bound`` (none when it is
    negative), listed without the ball: each is ``c^-1 h c`` for one
    cyclically reduced h with |h| <= bound and one reduced c with
    |h| + 2|c| <= max_len whose first letter is neither h[0] nor h[-1]^-1,
    which is what keeps the product reduced with core h."""
    if bound < 0:
        return []
    conjugators = list(words_upto(alphabet, (max_len - 1) // 2))[1:]
    starting = {d: [c for c in conjugators if c[0] == d] for d in alphabet.signed_letters()}
    out = [""]
    for h in words_upto(alphabet, bound):
        if not h or h[0] == h[-1].swapcase():
            continue
        out.append(h)
        room = (max_len - len(h)) // 2
        for d, cs in starting.items():
            if d != h[0] and d != h[-1].swapcase():
                for c in cs:
                    if len(c) > room:
                        break
                    out.append(invert(c) + h + c)
    return out


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


def _conjugate_pair_candidates(eq: Equation, shape, max_len: int, keep):
    """Candidates for s^a z^e s^b z^-e s^c = u, by conjugacy, for the values
    g of s in the ball that ``keep`` passes.
    With B = g^b and V = g^-a u g^-c, h' = z^-e satisfies h'^-1 B h' = V.
    For B != 1 the solutions are h' = r^k h, where h = conjugating_word(B, V)
    and r is the primitive root of B, whose cyclic group is the centralizer
    of B.  As |r^k h| >= |k|·|core r| - |h|, the sweep
    |k| <= (max_len + |h|) // |core r| finds every z in the ball."""
    z, a, e, b, c = shape
    ball = list(words_upto(eq.alphabet, max_len))
    image = power("x", -a) + "y" + power("x", -c)
    for g in keep(ball):
        target = _act(_values((g, eq.rhs)), (image,))[0]
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
                yield g, other


def _ab(v: str, letters: str) -> tuple[int, ...]:
    """The abelianization of ``v``: its exponent sums over the lowercase
    ``letters``, as ``exponent_sum`` counts them."""
    return tuple([v.count(c) - v.count(c.upper()) for c in letters])


def _ab_buckets(values: list[str], letters: str) -> dict[tuple[int, ...], list[str]]:
    """The words grouped by abelianization, each group in input order."""
    buckets: dict[tuple[int, ...], list[str]] = {}
    for v in values:
        buckets.setdefault(_ab(v, letters), []).append(v)
    return buckets


def _multiple(t: int, m: int) -> bool:
    """Whether t is m times an integer: t = 0 when m = 0."""
    return t % m == 0 if m else t == 0


def _abelian_candidates(eq: Equation, shape, max_len: int, keep):
    """Candidates for every other left side, whose shape is the abelianized
    equation ``(w_s, w_z, ab(u))`` itself: each value g of s that ``keep``
    passes fixes the one bucket of the ball that z comes from (a bucket is
    kept or dropped whole).  When both exponent sums are zero, every pair
    is a candidate."""
    ws, wz, ab_u = shape
    ball = list(words_upto(eq.alphabet, max_len))
    if wz == 0:
        yield from itertools.product(ball, repeat=2)
        return
    buckets = _ab_buckets(ball, eq.alphabet.letters)
    for key, values in buckets.items():
        others = buckets.get(tuple((t - ws * m) // wz for t, m in zip(ab_u, key)), ())
        for g in keep(values):
            for other in others:
                yield g, other


def _candidates(eq: Equation, max_len: int):
    """The pairs (g1, g2) in the ball that the left side's route names.

    A proper-power left side names no pair when u has no n-th root.  Each
    route takes the shape (z, ...), z being the eliminated variable, and
    yields pairs (value of s, value of z); ``keep`` is the abelianized
    equation's filter on the values of s (see the module docstring)."""
    if eq.lhs:
        root, n = primitive_root(eq.lhs)
        if n > 1:
            rhs = kth_root(eq.rhs, n)
            if rhs is None:
                return ()
            eq = Equation(eq.alphabet, root, rhs)
    for detect, route in ((_single_run_shape, _single_run_candidates),
                          (_conjugate_pair_shape, _conjugate_pair_candidates)):
        shape = detect(eq.lhs)
        if shape is not None:
            break
    else:
        route, shape = _abelian_candidates, None
    wx, wy = exponent_sum(eq.lhs, "x"), exponent_sum(eq.lhs, "y")
    # z is the shape's, or else y unless only x has a non-zero exponent sum.
    z = shape[0] if shape else "x" if wy == 0 and wx != 0 else "y"
    ws, wz = (wx, wy) if z == "y" else (wy, wx)
    letters = eq.alphabet.letters
    ab_u = _ab(eq.rhs, letters)
    if not all(_multiple(t, gcd(ws, wz)) for t in ab_u):
        return ()

    def keep(values: list[str]) -> list[str]:
        if _multiple(ws, wz):
            return values
        return [g for key, bucket in _ab_buckets(values, letters).items()
                if all(_multiple(t - ws * m, wz) for t, m in zip(ab_u, key)) for g in bucket]

    pairs = route(eq, shape or (ws, wz, ab_u), max_len, keep)
    return pairs if z == "y" else ((g2, g1) for g1, g2 in pairs)


def brute_force_solutions(eq: Equation, max_len: int) -> BruteForceResult:
    """All solutions with both coordinates of length at most ``max_len``.

    The left side's route (see the module docstring) names, for each value
    g of a kept variable s, the values of the other variable z to test; one
    loop confirms each candidate pair with ``Equation.holds_for``.
    """
    if max_len < 0:
        raise WordError("the ball radius must be non-negative")
    pairs = {pair for pair in _candidates(eq, max_len) if eq.holds_for(*pair)}
    solutions = tuple((g1, g2, pair_rank(g1, g2)) for g1, g2 in sorted(pairs, key=pair_key))
    return BruteForceResult(equation=eq, max_len=max_len, solutions=solutions)


def _power_span(r: str, max_len: int) -> int:
    """The largest |n| with |r^n| <= max_len, for a reduced r != 1 (negative
    when only r^0 fits): r^n, n != 0, has length |n|·|core r| + 2|conj r|."""
    core, conj = cyclic_reduce(r)
    return (max_len - 2 * len(conj)) // len(core)


def _rank1_in_ball(family: Rank1Family | None, max_len: int) -> set:
    # Both exponents (p + n·dx, q + n·dy) of a member in the ball are at most
    # m = max(_power_span(root), 0) in size, and one of dx, dy is non-zero, so
    # |n| <= m + |p| + |q|; filtering that sweep by exponent is exact.
    out: set[Pair] = set()
    if family is None or family.is_empty():
        return out
    m = max(_power_span(family.root, max_len), 0)
    span = m + abs(family.base[0]) + abs(family.base[1])
    for n in range(-span, span + 1):
        n1, n2 = family.exponents(n)
        if abs(n1) <= m and abs(n2) <= m:
            out.add((power(family.root, n1), power(family.root, n2)))
    return out


def _trivial_in_ball(family: TrivialFamily, eq: Equation, max_len: int) -> set:
    # The members (r^n1, r^n2) over primitive roots r, the lesser of r and
    # r^-1 only, as the lattice is symmetric: every exponent pair for two
    # generators, and for one generator d the multiples k·d with
    # |k·d1|, |k·d2| <= span.
    out = {("", "")}
    for r in words_upto(eq.alphabet, max_len):
        if not r or invert(r) < r or primitive_root(r)[1] > 1:
            continue
        span = _power_span(r, max_len)
        if len(family.generators) == 2:
            powers = [power(r, n) for n in range(-span, span + 1)]
            out.update(itertools.product(powers, repeat=2))
        else:
            (d1, d2), = family.generators
            m = span // max(abs(d1), abs(d2))
            out.update((power(r, k * d1), power(r, k * d2)) for k in range(-m, m + 1))
    return out


@dataclass(frozen=True)
class CertifyReport:
    equation: Equation
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
    covered_set = _rank1_in_ball(desc.rank1, max_len)
    if desc.kind == KIND_TRIVIAL:
        covered_set = _trivial_in_ball(desc.trivial, eq, max_len)
        family_exact = covered_set == set(pairs)
    elif desc.kind == KIND_PARAMETRIC:
        for g1, g2 in pairs:
            z = desc.parametric.parameter_of(g1, g2)
            if desc.parametric.member(desc.reduced.rhs, z) == (g1, g2):
                covered_set.add((g1, g2))
    elif desc.kind == KIND_JSJ:
        minimal = set(desc.minimal)
        for orbit in desc.orbits:
            covered_set |= orbit
        for g1, g2, rank in brute.solutions:
            if rank == 2 and minimal and (g1, g2) not in covered_set:
                walk = orbit_walk((g1, g2), desc.generators, desc.reduced.rhs)
                if not minimal.isdisjoint(walk):
                    covered_set |= walk
    elif desc.kind not in (KIND_EMPTY, KIND_RANK1_ONLY):
        raise WordError(f"cannot certify a description of kind {desc.kind!r}")

    uncovered = tuple(p for p in pairs if p not in covered_set)
    return CertifyReport(
        equation=eq,
        max_len=max_len,
        total_solutions=len(pairs),
        rank_counts=brute.rank_counts(),
        covered=not uncovered,
        uncovered=uncovered,
        family_exact=family_exact,
    )
