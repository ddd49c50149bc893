"""End-to-end acceptance checks.

One test per acceptance item; each prints ``ACCEPTANCE n: PASS`` with its
elapsed time (visible under ``pytest -s``; under ``pytest -v`` the test
names themselves give the per-item pass/fail lines).  Timing bounds are
asserted, so a pathological slowdown fails the suite.
"""

import random
import time

import pytest
from conftest import (
    apply_to_solution,
    delta_orbit_closure,
    full_ball_single_run,
    is_reduced,
    naive_member,
    naive_nielsen_reduce,
    nielsen_inverse,
    substitute,
)

from freeq.autf2 import WHITEHEAD_AUTOMORPHISMS, is_primitive
from freeq.graphs import build_subgroup_graph
from freeq.oracle import brute_force_solutions, certify
from freeq.solver import (
    Equation,
    FORMULA_CONJUGATES,
    describe_variety,
    two_level_member,
    verify_two_level,
)
from freeq.words import (
    Alphabet,
    cyclic_length,
    cyclic_normal_form,
    evaluate,
    invert,
    multiply,
    power,
    reduce_word,
    words_upto,
)

AB = Alphabet.from_string("ab")
XY = Alphabet.from_string("xy")


def _report(item: int, label: str, started: float, bound: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < bound, f"item {item} took {elapsed:.1f}s (bound {bound}s)"
    print(f"ACCEPTANCE {item}: PASS — {label} [{elapsed:.2f}s < {bound:g}s]")


def test_acceptance_1_two_level_family():
    """The nested two-parameter family solves its equation on the whole grid."""
    started = time.monotonic()
    for n in range(-3, 4):
        for m in range(-3, 4):
            assert verify_two_level(*two_level_member(n, m)), (n, m)
    assert two_level_member(1, 0) == ("Ba", "Bab")
    _report(1, "two-level family verifies on [-3,3]^2", started, 1.0)


def test_acceptance_2_squares_equation_certified():
    """x^2 y^2 = a^2 b^2: certified coverage at L=6 with the frozen minimal set."""
    started = time.monotonic()
    e = Equation(AB, "xxyy", "aabb")
    desc = describe_variety(e)
    report = certify(e, desc, 6)
    assert report.covered
    assert report.uncovered == ()
    assert desc.minimal == (("a", "b"),)
    assert report.total_solutions == 9
    assert report.rank_counts == (0, 0, 9)
    _report(2, "xxyy = aabb covered at L=6, minimal {(a, b)}", started, 300.0)


@pytest.mark.xfail(
    strict=True,
    reason="x^2y^2 equals p·(t^-1 p t) over the basis (p, t) = (xy, y), so the "
    "word admits an edge splitting and the description carries the edge-twist "
    "formula; a conjugates-only formula would under-generate the solution set "
    "(it misses e.g. (aBA, abb) at distance one from (a, b))",
)
def test_acceptance_2_formula_tag_is_conjugates_only():
    desc = describe_variety(Equation(AB, "xxyy", "aabb"))
    assert desc.formula == FORMULA_CONJUGATES


def test_acceptance_3_commutator_equation_certified():
    """[x,y] = [a,b]: certified coverage at L=5 from the three named twists."""
    started = time.monotonic()
    e = Equation(AB, "XYxy", "ABab")
    desc = describe_variety(e)
    report = certify(e, desc, 5)
    assert report.covered
    assert ("a", "b") in desc.minimal
    assert report.total_solutions == 119
    assert report.rank_counts == (0, 0, 119)
    # the conjugation and the two boundary twists suffice on their own
    core = tuple(g for g in desc.generators if g.symbol in ("c", "d", "e"))
    assert [g.symbol for g in core] == ["c", "d", "e"]
    closure = delta_orbit_closure(desc.minimal, core, 5 + 2 * len(e.rhs))
    rank2 = {(g1, g2) for g1, g2, r in brute_force_solutions(e, 5).solutions if r == 2}
    assert rank2 <= closure
    _report(3, "commutator equation covered at L=5 by {c, d, e}", started, 300.0)


def test_acceptance_4_fourth_power_rhs_rank1_lattice():
    """x^2 y^2 = a^4: no rank-two solutions; the ball equals the lattice slice."""
    started = time.monotonic()
    e = Equation(AB, "xxyy", "aaaa")
    result = brute_force_solutions(e, 8)
    assert all(rank != 2 for _, _, rank in result.solutions)
    lattice = set()
    for m in range(-8, 11):
        g1, g2 = power("a", m), power("a", 2 - m)
        if len(g1) <= 8 and len(g2) <= 8:
            lattice.add((g1, g2))
    assert set(result.pairs()) == lattice
    # Brute force tests only the powers of a here, so also check the ball.
    assert set(result.pairs()) == full_ball_single_run(AB, 2, 2, 0, "aaaa", 8)
    assert ("aaa", "A") in lattice  # the m=3 point is part of the family
    desc = describe_variety(e)
    family_points = {desc.rank1.member(n) for n in range(-9, 12)}
    assert lattice <= family_points
    _report(4, "xxyy = a^4 has only the rank-one lattice at L=8", started, 120.0)


def test_acceptance_5_trivial_rhs_inverse_pairs():
    """x^2 y^2 = 1: the L=4 ball is exactly the inverse pairs (g, g^-1)."""
    started = time.monotonic()
    e = Equation(AB, "xxyy", "")
    result = brute_force_solutions(e, 4)
    expected = {(g, invert(g)) for g in words_upto(AB, 4)}
    assert len(expected) == 161
    assert set(result.pairs()) == expected
    desc = describe_variety(e)
    assert desc.trivial.generators == ((1, -1),)
    _report(5, "xxyy = 1 ball equals {(g, g^-1)}, lattice (1, -1)", started, 30.0)


def _primitive_cyclic_classes(prune: int) -> set:
    """Orbit of x under the Whitehead generators, kept below the prune length.

    Cyclic words only: primitivity is a conjugacy-class property, and the
    descent theorem guarantees any primitive of cyclic length at most the
    prune bound is reached through forms no longer than itself.
    """
    start = cyclic_normal_form("x")
    seen = {start}
    queue = [start]
    while queue:
        w = queue.pop()
        for aut in WHITEHEAD_AUTOMORPHISMS:
            image = cyclic_normal_form(aut.apply(w))
            if image and cyclic_length(image) <= prune and image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


def test_acceptance_6_primitivity_agrees_with_orbit_enumeration():
    """is_primitive matches the exhaustive orbit of x on every word up to 6."""
    started = time.monotonic()
    classes6 = _primitive_cyclic_classes(6)
    classes8 = _primitive_cyclic_classes(8)
    # pruning deeper must not reveal new short primitives
    assert {w for w in classes8 if len(w) <= 6} == classes6
    total = 0
    primitives = 0
    for w in words_upto(XY, 6):
        total += 1
        expected = bool(w) and cyclic_normal_form(w) in classes6
        witness = is_primitive(w)
        assert (witness is not None) == expected, w
        if witness is not None:
            primitives += 1
            assert witness.apply(w) == "x"
    assert total == 1457
    assert primitives == len([w for w in words_upto(XY, 6) if w and cyclic_normal_form(w) in classes6])
    _report(6, f"primitivity exact on all {total} words up to length 6", started, 600.0)


def test_acceptance_7_canonical_generators_stabilize():
    """Emitted generators fix the left side and permute the solution set."""
    started = time.monotonic()
    rng = random.Random(151)
    instances = [("xxyy", "aabb"), ("XYxy", "ABab"), ("xxxyyy", "aaabbb")]
    checks = 0
    for w, u in instances:
        desc = describe_variety(Equation(AB, w, u))
        lhs = desc.reduced.lhs
        actions = []
        for gen in desc.generators:
            assert gen.aut.apply(lhs) == lhs, gen.symbol
            actions.extend((gen.aut, nielsen_inverse(gen.aut)))
        while checks < (instances.index((w, u)) + 1) * 3400:
            pair = rng.choice(desc.minimal)
            for _ in range(rng.randint(1, 5)):
                pair = apply_to_solution(rng.choice(actions), pair)
                assert desc.reduced.holds_for(*pair)
                checks += 1
    assert checks >= 10**4
    _report(7, f"generators stabilize w and solutions ({checks} checks)", started, 300.0)


def test_acceptance_8_infrastructure_properties():
    """Five arithmetic/graph properties, ten thousand random cases each."""
    started = time.monotonic()
    rng = random.Random(157)
    rounds = 10**4

    for _ in range(rounds):
        raw = "".join(rng.choice("abAB") for _ in range(rng.randint(0, 12)))
        w = reduce_word(raw)
        assert reduce_word(w) == w
        assert is_reduced(w)

    for _ in range(rounds):
        w1 = reduce_word("".join(rng.choice("xyXY") for _ in range(rng.randint(0, 7))))
        w2 = reduce_word("".join(rng.choice("xyXY") for _ in range(rng.randint(0, 7))))
        gx = reduce_word("".join(rng.choice("abAB") for _ in range(rng.randint(0, 5))))
        gy = reduce_word("".join(rng.choice("abAB") for _ in range(rng.randint(0, 5))))
        assert evaluate(multiply(w1, w2), gx, gy) == multiply(
            evaluate(w1, gx, gy), evaluate(w2, gx, gy)
        )

    for _ in range(rounds):
        gens = [
            reduce_word("".join(rng.choice("abAB") for _ in range(rng.randint(1, 4))))
            for _ in range(rng.randint(1, 3))
        ]
        reference = build_subgroup_graph(AB, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        shuffled.append(multiply(rng.choice(gens), rng.choice(gens)))
        assert build_subgroup_graph(AB, shuffled) == reference

    ball4 = list(words_upto(AB, 4))
    comparisons = 0
    while comparisons < rounds:
        gens = [
            reduce_word("".join(rng.choice("abAB") for _ in range(rng.randint(1, 4))))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [g for g in gens if g]
        if not gens:
            continue
        graph = build_subgroup_graph(AB, gens)
        reduced = naive_nielsen_reduce(gens)
        for _ in range(100):
            w = rng.choice(ball4)
            assert graph.contains(w) == naive_member(reduced, w), (gens, w)
            comparisons += 1

    bases = [("a", "b"), ("ab", "b"), ("ab", "ba"), ("aa", "bb"), ("aab", "abb")]
    prepared = []
    for pair in bases:
        basis = build_subgroup_graph(AB, list(pair)).canonical_basis()
        prepared.append((pair, basis, dict(zip(basis.letters, basis.generators))))
    for _ in range(rounds):
        pair, basis, table = prepared[rng.randrange(len(prepared))]
        expr = reduce_word("".join(rng.choice("xyXY") for _ in range(rng.randint(0, 8))))
        member = substitute(expr, dict(zip("xy", pair)))
        assert substitute(basis.express(member), table) == member

    _report(8, f"five property families x {rounds} cases", started, 600.0)
