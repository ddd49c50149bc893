"""The description pipeline: kinds, classification, generators, generation."""

import dataclasses
import functools
import inspect
import math
import random
import sys

import pytest
from conftest import (
    apply_to_solution,
    automorphism,
    evaluating_orbit_walk,
    nielsen_inverse,
    orbit_automorphism,
    partition_terminal_candidates,
    probe_equations,
    rebuilding_hnn_splitting,
    refolding_terminal_candidates,
    widening_minimal_solutions,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import freeq.autf2 as autf2
import freeq.cli as cli
import freeq.solver as solver
from freeq.autf2 import (
    IDENTITY,
    AutF2,
    TYPE1_AUTOMORPHISMS,
    WHITEHEAD_AUTOMORPHISMS,
    MinimalLevel,
    SearchBudgetExceeded,
)
from freeq.graphs import CoreGraph, build_subgroup_graph
from freeq.oracle import certify
from freeq.solver import (
    CASE_HNN,
    CASE_QH,
    CASE_RIGID,
    CASE_UNRESOLVED,
    DELTA_X,
    DELTA_Y,
    Equation,
    FIRST_LEVEL_LHS,
    FORMULA_CONJUGATES,
    FORMULA_HNN,
    FORMULA_KERNEL,
    FORMULA_ORBIT,
    FORMULA_PARAMETRIC,
    KIND_EMPTY,
    KIND_JSJ,
    KIND_PARAMETRIC,
    KIND_RANK1_ONLY,
    KIND_TRIVIAL,
    LeftSide,
    STATUS_OK,
    STATUS_UNRESOLVED,
    _BasisWalk,
    _basis_walk,
    _line_basis,
    _may_split,
    _symmetry_generators,
    descend,
    describe_variety,
    detect_hnn_splitting,
    generate_conjugates,
    generate_hnn,
    generate_orbit,
    generate_parametric,
    generate_rank1,
    generate_trivial,
    mega_word,
    orbit_walk,
    terminal_candidates,
    two_level_conjugator,
    two_level_member,
    verify_solution,
    verify_two_level,
)
from freeq.words import (
    VARIABLES,
    Alphabet,
    WordError,
    commutator,
    conjugate,
    cyclic_core,
    cyclic_normal_form,
    evaluate,
    exponent_sum,
    invert,
    kth_root,
    multiply,
    pair_key,
    pair_rank,
    parse_word,
    power,
    primitive_root,
    reduce_word,
    words_upto,
)

AB = Alphabet.from_string("ab")


def eq(w, u, alphabet=AB):
    return Equation(alphabet, w, u)


def describe(w, u, **kw):
    return describe_variety(eq(w, u), **kw)


def test_equation_validation():
    with pytest.raises(WordError):
        Equation(Alphabet.from_string("xy"), "xy", "x")
    with pytest.raises(WordError):
        eq("xzy", "ab")  # z is not a variable
    with pytest.raises(WordError):
        eq("xy", "ac")  # c outside the alphabet
    e = eq("xyY", "abB")
    assert (e.lhs, e.rhs) == ("x", "a")  # sides are stored reduced
    assert str(eq("xxyy", "aabb")) == "xxyy = aabb"


def test_holds_for_and_verify():
    e = eq("xxyy", "aabb")
    assert e.holds_for("a", "b")
    assert not e.holds_for("b", "a")
    assert verify_solution(e, "a", "b") == (True, 2)
    assert verify_solution(eq("xxyy", ""), "ab", "BA") == (True, 1)
    assert verify_solution(eq("xxyy", ""), "", "") == (True, 0)


def test_delta_twists_fix_the_commutator():
    for delta in (DELTA_X, DELTA_Y):
        assert delta.apply("XYxy") == "XYxy"
        assert delta.inverse == nielsen_inverse(delta)


def test_lhs_rejection():
    for bad in ("1", "xX", "xxx", "yyy"):
        with pytest.raises(WordError):
            describe(bad, "ab")


def test_trivial_rhs_kernel_lattice():
    desc = describe("xxyy", "")
    assert desc.status == STATUS_OK
    assert desc.kind == KIND_TRIVIAL
    assert desc.formula == FORMULA_KERNEL
    assert desc.trivial.generators == ((1, -1),)
    assert desc.trivial.contains_exponents(3, -3)
    assert not desc.trivial.contains_exponents(1, 1)
    g1, g2 = desc.trivial.member("ab", 2, -2)
    assert eq("xxyy", "").holds_for(g1, g2)


def test_trivial_rhs_zero_exponents():
    desc = describe("XYxy", "")
    assert desc.kind == KIND_TRIVIAL
    assert desc.trivial.generators == ((1, 0), (0, 1))
    assert desc.trivial.contains_exponents(5, -7)


def test_generate_trivial():
    desc = describe("xxyy", "")
    for n in range(-3, 4):
        g1, g2 = generate_trivial(desc, "ab", n, -n)
        assert evaluate("xxyy", g1, g2) == ""
    with pytest.raises(WordError):
        generate_trivial(desc, "ab", 1, 1)  # not on the lattice


def test_parametric_kind():
    desc = describe("xy", "ab")
    assert desc.kind == KIND_PARAMETRIC
    assert desc.formula == FORMULA_PARAMETRIC
    rng = random.Random(113)
    for _ in range(50):
        z = reduce_word("".join(rng.choice("abAB") for _ in range(rng.randint(0, 6))))
        g1, g2 = generate_parametric(desc, z)
        assert evaluate("xy", g1, g2) == "ab"
        assert desc.parametric.parameter_of(g1, g2) == z


def test_proper_power_reduces():
    desc = describe("xyxy", "abab")
    assert desc.kind == KIND_PARAMETRIC
    assert desc.equation.lhs == "xyxy"
    assert desc.reduced.lhs == "xy"
    assert desc.reduced.rhs == "ab"
    # the exponent divides: (xy)^2 = (ab)^4 leaves xy = abab
    desc2 = describe("xyxy", "abababab")
    assert desc2.reduced.rhs == "abab"


def test_proper_power_empty():
    desc = describe("xyxy", "aba")
    assert desc.kind == KIND_EMPTY
    desc2 = describe("xxyyxxyy", "aabb")
    assert desc2.kind == KIND_EMPTY


def test_rank1_only():
    desc = describe("xxyy", "aaaa")
    assert desc.kind == KIND_RANK1_ONLY
    fam = desc.rank1
    assert fam.root == "a"
    for n in range(-4, 5):
        n1, n2 = fam.exponents(n)
        assert n1 + n2 == 2
        g1, g2 = generate_rank1(desc, n)
        assert evaluate("xxyy", g1, g2) == "aaaa"
    assert desc.minimal == ()


def test_left_sides_reaching_step_6_take_no_proper_power_value():
    """Step 6 describes ``w = u`` with ``u`` a proper power by its commuting
    solutions alone.  On every cyclic normal form of at most 6 letters that
    reaches it, in both variables, neither primitive nor a proper power,
    ``w`` takes no proper-power value at any non-commuting pair of words of
    at most 3 letters."""
    forms = [w for w in words_upto(VARIABLES, 6)
             if {c.lower() for c in w} == {"x", "y"} and cyclic_normal_form(w) == w
             and primitive_root(w)[1] == 1 and autf2.is_primitive(w) is None]
    ball = list(words_upto(AB, 3))
    pairs = [(g1, g2) for g1 in ball for g2 in ball if pair_rank(g1, g2) == 2]
    assert (len(forms), len(pairs)) == (150, 2552)
    for w in forms:
        for pair in pairs:
            assert primitive_root(evaluate(w, *pair))[1] == 1, (w, pair)


def test_rank1_empty_gives_empty_kind():
    # gcd of the exponent sums does not divide the power of the root
    desc = describe("xxyy", "aaa")
    assert desc.kind == KIND_EMPTY


@pytest.mark.parametrize(
    "w,case",
    [
        ("XYxy", CASE_QH),
        ("xyXY", CASE_QH),
        ("xxyy", CASE_HNN),
        ("xYxy", CASE_HNN),
        ("xxxyyy", CASE_RIGID),
    ],
)
def test_classify(w, case):
    assert LeftSide(w).classification.kind == case


def test_classify_hnn_witness():
    cls = LeftSide("xxyy").classification
    p, t = cls.aut.image_x, cls.aut.image_y
    q = conjugate(p, t)
    assert (p, q, t) == ("xy", "Yxyy", "y")
    # w lies in <p, q> with zero stable-letter exponent
    assert build_subgroup_graph(Alphabet.from_string("xy"), [p, q]).contains("xxyy")
    cls2 = LeftSide("xYxy").classification
    assert (cls2.aut.image_x, cls2.aut.image_y) == ("x", "y")


def test_classify_budget_exhaustion():
    cls = LeftSide("xxyyxy", hnn_max_bases=1).classification
    assert cls.kind == CASE_UNRESOLVED


def test_describe_unresolved_status():
    desc = describe("xxyyxy", "aabbab", hnn_max_bases=1)
    assert desc.status == STATUS_UNRESOLVED


def test_hnn_search_matches_rebuilding_oracle():
    words = [w for w in words_upto(VARIABLES, 6) if {c.lower() for c in w} == {"x", "y"}]
    outcomes = set()
    for w in words:
        witness = detect_hnn_splitting(w)
        assert witness == rebuilding_hnn_splitting(w), w
        outcomes.add(witness is None)
    assert outcomes == {True, False}


def _reduced_words(min_size, max_size):
    """Freely reduced words in x, y of a length in [min_size, max_size]."""

    def spell(first_and_steps):
        first, steps = first_and_steps
        word = first
        for k in steps:
            word += [c for c in "xyXY" if c != word[-1].swapcase()][k]
        return word

    steps = st.lists(st.integers(0, 2), min_size=min_size - 1, max_size=max_size - 1)
    return st.tuples(st.sampled_from("xyXY"), steps).map(spell)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_reduced_words(7, 8).filter(lambda w: {c.lower() for c in w} == {"x", "y"}))
def test_hnn_search_matches_rebuilding_oracle_at_lengths_7_and_8(w):
    assert detect_hnn_splitting(w) == rebuilding_hnn_splitting(w)


def test_hnn_basis_walk_is_shared_and_grows_lazily():
    """A call that trips after one basis expands at most one head of the
    shared walk, and a later call on the partly grown walk answers as a call
    on a fresh walk and as the rebuilding oracle do."""
    w = "xxxxyyyy"
    _basis_walk.cache_clear()
    with pytest.raises(SearchBudgetExceeded, match="tested 1 bases"):
        detect_hnn_splitting(w, hnn_max_bases=1)
    assert _basis_walk(len(w)).head <= 1
    after_trip = detect_hnn_splitting(w)
    _basis_walk.cache_clear()
    assert after_trip == detect_hnn_splitting(w) == rebuilding_hnn_splitting(w)
    assert after_trip is None


def test_hnn_edge_groups_have_rank_two():
    # <p, t^-1 p t> is the image of <x, Yxy> under the automorphism (p, t).
    walk = _basis_walk(6)
    i = 0
    while walk.reaches(i):
        p, t = walk.pairs[i]
        assert build_subgroup_graph(VARIABLES, [p, conjugate(p, t)]).rank() == 2, (p, t)
        i += 1
    assert i > 100


@pytest.mark.parametrize("w", ["xxxyyy", "xxyyxy"])
def test_hnn_edge_groups_are_built_once_per_walk(monkeypatch, w):
    built = []

    def counting(alphabet, generators):
        built.append(tuple(generators))
        return build_subgroup_graph(alphabet, generators)

    monkeypatch.setattr(solver, "build_subgroup_graph", counting)
    _basis_walk.cache_clear()
    cold = detect_hnn_splitting(w)
    assert built
    built.clear()
    assert detect_hnn_splitting(w) == cold == rebuilding_hnn_splitting(w)
    assert built == []


def _hnn_outcome(search, w, hnn_max_bases):
    try:
        return search(w, hnn_max_bases)
    except SearchBudgetExceeded as exc:
        return str(exc)


def test_hnn_search_budget_trip_matches_oracle():
    assert _hnn_outcome(detect_hnn_splitting, "xxyyxy", 1) == (
        "edge-splitting search tested 1 bases without a verdict"
    )
    assert detect_hnn_splitting("xYxy", 1).is_identity()
    for w in words_upto(VARIABLES, 6):
        if {c.lower() for c in w} != {"x", "y"}:
            continue
        for cap in (1, 2, 7, 50, 300):
            fast = _hnn_outcome(detect_hnn_splitting, w, cap)
            assert fast == _hnn_outcome(rebuilding_hnn_splitting, w, cap), (w, cap)
    # The rigid xxxyyy walks all 904 bases of the bound-6 walk: one short of
    # that trips, and a cap at or past the walk's end gives the verdict.
    for cap in (903, 904, 905):
        fast = _hnn_outcome(detect_hnn_splitting, "xxxyyy", cap)
        assert fast == _hnn_outcome(rebuilding_hnn_splitting, "xxxyyy", cap), cap
        expected = "edge-splitting search tested 903 bases without a verdict" if cap == 903 else None
        assert fast == expected, cap


def test_line_test_agrees_with_the_basis_walk():
    """Every root with |w| <= 8 that reaches the edge-splitting search, with
    exponent sums not both zero: a basis found by the walk implies that the
    line test passes, and on cyclically reduced roots the two verdicts are
    equal.  The 32 roots that pass but that the walk calls rigid are not
    cyclically reduced (ROADMAP item 2)."""
    walked = split = uncertain = 0
    for w in words_upto(VARIABLES, 8):
        if {c.lower() for c in w} != {"x", "y"}:
            continue
        left = LeftSide(w)
        root = left.root
        if not (exponent_sum(root, "x") or exponent_sum(root, "y")):
            continue
        if left.primitive is not None or left.level.carry("XYxy") is not None:
            continue
        basis, passes = detect_hnn_splitting(root), _may_split(root)
        walked += 1
        split += basis is not None
        if basis is not None or cyclic_core(root) == root:
            assert passes == (basis is not None), w
        else:
            uncertain += passes
    assert (walked, split, uncertain) == (10832, 2424, 32)


def test_line_basis_is_a_basis_on_its_line():
    """For every coprime (a, b) with |a| + |b| <= 12, the line basis passes
    the checked ``AutF2`` constructor and its image of x has sums (a, b)."""
    lines = 0
    for a in range(-12, 13):
        for b in range(-12 + abs(a), 13 - abs(a)):
            if math.gcd(a, b) != 1:
                continue
            phi = _line_basis(a, b)
            AutF2(phi.image_x, phi.image_y, phi.inverse_x, phi.inverse_y)
            assert (exponent_sum(phi.image_x, "x"), exponent_sum(phi.image_x, "y")) == (a, b)
            lines += 1
    assert lines == 184


def test_walk_primitives_are_conjugate_to_the_line_basis():
    """Osborne–Zieschang: every first component of the bound-8 walk is
    conjugate to phi(x) or phi(x)^-1, phi the line basis of its sums."""
    walk = _BasisWalk(8)
    while walk.reaches(len(walk.pairs)):
        pass
    for p, _ in walk.pairs:
        x = _line_basis(exponent_sum(p, "x"), exponent_sum(p, "y")).image_x
        assert cyclic_normal_form(p) in (cyclic_normal_form(x), cyclic_normal_form(invert(x))), p
    assert len(walk.pairs) == 2856


def _long_left_sides(count, seed=11):
    """Cyclically reduced 12-14-letter left sides with exponent sums not
    both zero, neither primitive nor proper powers."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        w = rng.choice("xyXY")
        for _ in range(rng.randint(12, 14) - 1):
            w += rng.choice([c for c in "xyXY" if c != w[-1].swapcase()])
        if w[0] == w[-1].swapcase() or {c.lower() for c in w} != {"x", "y"}:
            continue
        left = LeftSide(w)
        sums = exponent_sum(w, "x"), exponent_sum(w, "y")
        if sums != (0, 0) and left.power == 1 and left.primitive is None:
            out.append(w)
    return out


@pytest.mark.parametrize("w", _long_left_sides(4))
def test_long_rigid_left_sides_describe_and_certify(w):
    """(aab, ba) planted on a long left side: the line test proves it rigid,
    and certify at L = 3 finds one solution, the plant, and covers it."""
    assert not _may_split(w)
    e = eq(w, evaluate(w, "aab", "ba"))
    desc = describe_variety(e)
    assert (desc.status, desc.classification.kind) == (STATUS_OK, CASE_RIGID)
    report = certify(e, desc, 3)
    assert (report.covered, report.rank_counts) == (True, (0, 0, 1))


JSJ_ANCHORS = (("XYxy", "ABab"), ("xxyy", "aabb"), ("xYxy", "aBab"), ("xxxyyy", "aaabbb"))
LARGE_U = (("[x,y]", "[aab,ba]"), ("xxyy", "(aab)^2(bab)^2"), ("[x,y]", "[aab,bba]"))


def _minimization_corpus():
    """The JSJ anchors, the |u| = 10-12 equations, and two planted equations
    u = w(g1, g2) (|g1|, |g2| <= 2) per cyclic normal form w with |w| <= 5."""
    equations = [eq(w, u) for w, u in JSJ_ANCHORS]
    equations += [eq(parse_word(w, "xy"), parse_word(u, "ab")) for w, u in LARGE_U]
    rng = random.Random(149)
    small = list(words_upto(AB, 2))
    forms = {cyclic_normal_form(w) for w in words_upto(VARIABLES, 5)}
    for w in sorted(f for f in forms if {c.lower() for c in f} == {"x", "y"}):
        for _ in range(2):
            equations.append(eq(w, evaluate(w, rng.choice(small), rng.choice(small))))
    return equations


def test_minimal_solutions_match_widening_oracle():
    """Walking each seed once, in the ball it starts with, gives the minimal
    sets that restarting in doubled balls gives."""
    compared = 0
    for e in _minimization_corpus():
        desc = describe_variety(e)
        if desc.kind != KIND_JSJ:
            continue
        assert desc.status == STATUS_OK, e
        assert desc.minimal == widening_minimal_solutions(desc.reduced, desc.generators), e
        compared += 1
    assert compared == 70


@pytest.mark.parametrize(
    "w,u,kept",
    [("[x,y]", "[a,b]", 1), ("(xxyy)^2", "(aabb)^2", 1), ("xxxyy", "aaababa", 1)],
)
def test_describe_keeps_only_base_ball_walks(w, u, kept):
    """Certify covers the kept walks without walking them, which is exact only
    if each lies in the base ball 2|u| + 4 and is the walk from any of its
    pairs.  The walks start from the minimal solutions: the one seed of
    xxxyy = aaababa is longer than that ball, but its minimal solution is
    not, so its walk is kept."""
    desc = describe(parse_word(w, "xy"), parse_word(u, "ab"))
    assert len(desc.orbits) == kept
    rhs = desc.reduced.rhs
    for orbit in desc.orbits:
        assert not orbit.isdisjoint(desc.minimal)
        assert all(len(g1) + len(g2) <= 2 * len(rhs) + 4 for g1, g2 in orbit)
        for pair in (min(orbit, key=pair_key), max(orbit, key=pair_key)):
            assert orbit_walk(pair, desc.generators, rhs) == orbit


def test_seeds_generate_their_candidate_subgroups():
    """Each seed generates its candidate's subgroup, and distinct candidates
    are distinct subgroups, so the seeds' orbit walks never meet."""
    matched = 0
    for e in _minimization_corpus():
        desc = describe_variety(e)
        if desc.kind != KIND_JSJ:
            continue
        candidates = gated_candidates(desc.reduced)
        graphs = {build_subgroup_graph(AB, pair) for pair, _ in candidates}
        assert len(graphs) == len(candidates), e
        for pair, rewritten in candidates:
            match = orbit_automorphism(desc.reduced.lhs, rewritten)
            if match is None:
                continue
            seed = apply_to_solution(match, pair)
            assert build_subgroup_graph(AB, seed) == build_subgroup_graph(AB, pair), (e, pair)
            matched += 1
    assert matched >= 70


def test_minimal_level_carry_matches_orbit_search():
    """One level per left side, looked up for every terminal candidate in
    turn, gives the automorphism the per-pair search gives, or None where it
    does, on the minimization corpus and the |w| <= 5 probe.  The walk gated
    by the level's gcd keeps 2225 of the candidates, every hit among them."""
    looked_up = matched = kept = kept_matched = 0
    for e in _minimization_corpus() + probe_equations(5):
        desc = describe_variety(e)
        if desc.kind != KIND_JSJ:
            continue
        level = MinimalLevel(desc.reduced.lhs)
        gated = terminal_candidates(desc.reduced, level.gcd)
        kept += len(gated)
        for candidate in refolding_terminal_candidates(desc.reduced):
            rewritten = candidate[1]
            match = level.carry(rewritten)
            if match is not None:
                assert match.inverse == nielsen_inverse(match), (e, rewritten)
            assert match == orbit_automorphism(desc.reduced.lhs, rewritten), (e, rewritten)
            looked_up += 1
            matched += match is not None
            kept_matched += match is not None and candidate in gated
    assert (looked_up, matched) == (3385, 286)
    assert (kept, kept_matched) == (2225, 286)


def _invariants(desc):
    case = desc.classification.kind if desc.classification else None
    return desc.status, desc.kind, case, len(desc.minimal)


def test_coefficient_automorphism_keeps_the_description_shape():
    """For an automorphism alpha of F(a, b), (g1, g2) solves w = u exactly when
    (alpha(g1), alpha(g2)) solves w = alpha(u): both equations describe with
    the same status, kind, case and number of minimal solutions.  Checked
    per equation of the |w| <= 5 probe with one seeded Whitehead
    automorphism, with a product of two others and with a product of three."""
    rng, products, triples = random.Random(61), random.Random(67), random.Random(71)
    to_xy, to_ab = str.maketrans("abAB", "xyXY"), str.maketrans("xyXY", "abAB")
    equations = probe_equations(5)
    for e in equations:
        shape = _invariants(describe_variety(e))
        alpha = rng.choice(WHITEHEAD_AUTOMORPHISMS)
        beta = products.choice(WHITEHEAD_AUTOMORPHISMS).compose(products.choice(WHITEHEAD_AUTOMORPHISMS))
        gamma = functools.reduce(AutF2.compose, (triples.choice(WHITEHEAD_AUTOMORPHISMS) for _ in range(3)))
        for phi in (alpha, beta, gamma):
            image = eq(e.lhs, phi.apply(e.rhs.translate(to_xy)).translate(to_ab))
            assert _invariants(describe_variety(image)) == shape, (e, phi, image)
    assert len(equations) == 410


def _carried_pair(alpha, pair):
    """A pair over a and b carried by an automorphism of F(x, y), read over (a, b)."""
    to_xy, to_ab = str.maketrans("abAB", "xyXY"), str.maketrans("xyXY", "abAB")
    return tuple(alpha.apply(g.translate(to_xy)).translate(to_ab) for g in pair)


# Coefficient-side images whose carried minimal pair descends outside the
# described minimal set: all four left sides are rigid, and xyxYY is one of
# the words whose stabilizer the canonical generators miss (ROADMAP item 1).
ITEM_1_PAIRS = (("xxyyy", "aBabb"), ("xyxYY", "abaBAB"), ("xyXXy", "abAAb"), ("XyXYY", "bAbbABB"))


@functools.lru_cache(maxsize=None)
def _coefficient_images():
    """Each |w| <= 5 probe description with minimal pairs, the seeded Whitehead
    automorphism alpha that the shape test draws for it, and the description
    of w = alpha(u)."""
    rng, images = random.Random(61), []
    for e in probe_equations(5):
        desc, alpha = describe_variety(e), rng.choice(WHITEHEAD_AUTOMORPHISMS)
        if desc.minimal:
            images.append((desc, alpha, describe(e.lhs, _carried_pair(alpha, (e.rhs,))[0])))
    return tuple(images)


def _descends_into_its_orbit(desc, alpha, image):
    for pair in desc.minimal:
        carried = _carried_pair(alpha, pair)
        assert image.reduced.holds_for(*carried)
        if descend(carried, image.generators, image.reduced.rhs) not in image.minimal:
            return False
    return True


def test_coefficient_automorphism_carries_minimal_pairs_into_described_orbits():
    """For alpha in Aut(F(a, b)), each minimal pair of w = u, carried by
    alpha, solves w = alpha(u) and descends under that description's
    generators into its minimal set, on the |w| <= 5 probe; the pairs of
    ``ITEM_1_PAIRS`` are pinned apart."""
    checked, pinned = 0, set()
    for desc, alpha, image in _coefficient_images():
        key = (desc.reduced.lhs, desc.reduced.rhs)
        if key in ITEM_1_PAIRS:
            pinned.add(key)
            continue
        assert _descends_into_its_orbit(desc, alpha, image), (key, alpha)
        checked += len(desc.minimal)
    assert pinned == set(ITEM_1_PAIRS)
    assert checked == 210


@pytest.mark.parametrize("w,u", ITEM_1_PAIRS)
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the canonical generators miss part "
                                       "of the rigid left side's stabilizer")
def test_coefficient_automorphism_carries_item_1_pairs_into_described_orbits(w, u):
    desc, alpha, image = next(d for d in _coefficient_images()
                              if (d[0].reduced.lhs, d[0].reduced.rhs) == (w, u))
    assert _descends_into_its_orbit(desc, alpha, image)


def test_conjugated_right_side_keeps_the_description():
    """(g1, g2) solves w = u exactly when (h^-1 g1 h, h^-1 g2 h) solves
    w = h^-1 u h.  For each equation of the |w| <= 5 probe and each h, both
    describe with the same status, kind, formula, classification, generators
    and number of minimal pairs, and the minimal pairs of w = h^-1 u h,
    conjugated back by h^-1, solve w = u and descend onto exactly its
    minimal set."""
    checked = 0
    for e in probe_equations(5):
        desc = describe_variety(e)
        for h in ("a", "B", "ab"):
            image = describe(e.lhs, conjugate(e.rhs, h))
            key = (e.lhs, e.rhs, h)
            for field in ("status", "kind", "formula", "classification", "generators"):
                assert getattr(image, field) == getattr(desc, field), (key, field)
            assert len(image.minimal) == len(desc.minimal), key
            back = [tuple(conjugate(g, invert(h)) for g in pair) for pair in image.minimal]
            assert all(desc.reduced.holds_for(*pair) for pair in back), key
            descended = {descend(pair, desc.generators, desc.reduced.rhs) for pair in back}
            assert descended == set(desc.minimal), key
            checked += 1
    assert checked == 1230


# A variable-side image phi(w) = u that describes with another shape than
# w = u, because describe classifies phi(w) itself and not its minimal form
# (ROADMAP item 2): XXYY goes from hnn to rigid.
ITEM_2_IMAGES = (("XXYY", "bAbABB", ("yxY", "yXyxY")),)
# Images of rigid words whose edge-splitting search ran out of budget until
# the line test proved them rigid.  The first two are drawn by the test below.
RIGID_IMAGES = (
    ("XXXYY", "BABABAABAB", ("xxY", "yX")),
    ("XyXYY", "BAbaBAABAB", ("xY", "yXy")),
    ("xxyyy", "aabbb", ("Yx", "YxyXy")),
)


def test_variable_automorphism_keeps_the_description_shape():
    """For an automorphism phi of F(x, y), (g1, g2) solves phi(w) = u exactly
    when (phi(x), phi(y)) evaluated at it solves w = u: both equations
    describe with the same status, kind, case and number of minimal
    solutions.  Checked per equation of the |w| <= 5 probe with one seeded
    Whitehead automorphism and with a product of two others, skipping images
    in one variable, which describe rejects, and the pinned ``ITEM_2_IMAGES``."""
    rng, products = random.Random(61), random.Random(67)
    pinned = {(w, u, automorphism(*phi)) for w, u, phi in ITEM_2_IMAGES}
    images = []
    for e in probe_equations(5):
        shape = _invariants(describe_variety(e))
        alpha = rng.choice(WHITEHEAD_AUTOMORPHISMS)
        beta = products.choice(WHITEHEAD_AUTOMORPHISMS).compose(products.choice(WHITEHEAD_AUTOMORPHISMS))
        for phi in (alpha, beta):
            image = eq(phi.apply(e.lhs), e.rhs)
            if {c.lower() for c in image.lhs} != {"x", "y"} or (e.lhs, e.rhs, phi) in pinned:
                images.append(None)
                continue
            assert _invariants(describe_variety(image)) == shape, (e, phi, image)
            images.append(image)
    assert (len(images), len(images) - images.count(None)) == (820, 808)


def _keeps_the_description_shape(w, u, phi):
    image = eq(automorphism(*phi).apply(w), u)
    assert _invariants(describe(image.lhs, u)) == _invariants(describe(w, u))


@pytest.mark.parametrize("w,u,phi", ITEM_2_IMAGES)
@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: describe classifies the image itself, "
                                       "not its minimal form")
def test_variable_automorphism_keeps_the_item_2_description_shapes(w, u, phi):
    _keeps_the_description_shape(w, u, phi)


@pytest.mark.parametrize("w,u,phi", RIGID_IMAGES)
def test_variable_automorphism_keeps_the_rigid_image_description_shapes(w, u, phi):
    image = describe(automorphism(*phi).apply(w), u)
    shape = (image.status, image.classification.kind, len(image.minimal))
    assert shape == (STATUS_OK, CASE_RIGID, 1)
    _keeps_the_description_shape(w, u, phi)


def _twisted_image_solution():
    """The description of phi(XXYY) = bAbABB, phi = (yxY, yXyxY), and the
    twisted solution t of XXYY = bAbABB carried to it by phi^-1."""
    phi = AutF2("yxY", "yXyxY", "xYxyX", "xyX")
    twisted = generate_orbit(describe("XXYY", "bAbABB"), 0, "t")
    return describe(phi.apply("XXYY"), "bAbABB"), apply_to_solution(phi.inverse, twisted)


def test_twisted_solution_of_an_hnn_image_is_outside_the_described_orbit():
    """phi carries the hnn word XXYY to yXXXYYxY, which describes as rigid
    with the one minimal pair (aBBabA, abA).  The carried twisted solution
    solves the image equation, but descent from it stays where it is and its
    walk never meets the minimal pair: the description misses the whole
    twist family.  Certify at L <= 7 cannot see it, as the ball holds one
    solution."""
    image, carried = _twisted_image_solution()
    assert (image.reduced.lhs, image.classification.kind) == ("yXXXYYxY", CASE_RIGID)
    assert image.minimal == (("aBBabA", "abA"),)
    assert carried == ("bABBABabbaB", "bABabbaB") and image.reduced.holds_for(*carried)
    rhs = image.reduced.rhs
    assert descend(carried, image.generators, rhs) == carried
    assert image.minimal[0] not in orbit_walk(carried, image.generators, rhs)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the image of an hnn word describes "
                                       "as rigid, so its generators lack the twist")
def test_twisted_solution_of_an_hnn_image_descends_to_a_minimal_pair():
    image, carried = _twisted_image_solution()
    assert descend(carried, image.generators, image.reduced.rhs) in image.minimal


def test_minimizer_carries_its_inverse(monkeypatch):
    """Every Whitehead minimization that describing the minimization corpus
    makes returns an automorphism that carries its inverse."""
    minimized = []
    real_minimize = autf2.whitehead_minimize

    def recording_minimize(w):
        minimized.append(w)
        return real_minimize(w)

    monkeypatch.setattr(autf2, "whitehead_minimize", recording_minimize)
    for e in _minimization_corpus():
        describe_variety(e)
    for w in minimized:
        _, aut = real_minimize(w)
        assert aut.compose(aut.inverse).is_identity(), w
        assert aut.inverse == nielsen_inverse(aut), w
    assert len(minimized) > 300


# Whitehead minimizations per describe of each bench anchor and of one
# proper power: one for the level, one per lookup whose target passes the
# gcd test.
MINIMIZATIONS_PER_ANCHOR = {
    ("xy", "ab"): 2,
    ("xxyy", "aaaa"): 1,
    ("xxyy", "1"): 0,
    ("(xy)^2", "ab"): 0,
    ("[x,y]", "[a,b]"): 3,
    ("xxyy", "aabb"): 2,
    ("xYxy", "aBab"): 2,
    ("xxxyyy", "aaabbb"): 2,
    ("(xxyy)^2", "(aabb)^2"): 2,
}


def test_one_minimal_level_per_described_equation(monkeypatch):
    """Describing builds exactly one level, on the reduced left side, for
    every equation with a non-trivial right side that the proper-power step
    does not empty, and none for any other; the primitivity test, the qh
    test and the candidate lookups all read that one level."""
    built, minimized = [], []
    real_minimize = autf2.whitehead_minimize

    class Counting(MinimalLevel):
        def __init__(self, w):
            built.append(w)
            super().__init__(w)

    def counting_minimize(w):
        minimized.append(w)
        return real_minimize(w)

    monkeypatch.setattr(solver, "MinimalLevel", Counting)
    monkeypatch.setattr(autf2, "whitehead_minimize", counting_minimize)
    anchors = [eq(parse_word(w, "xy"), parse_word(u, "ab")) for w, u in MINIMIZATIONS_PER_ANCHOR]
    levels = 0
    for e in _minimization_corpus() + anchors:
        built.clear()
        desc = describe_variety(e)
        expected = bool(e.rhs) and kth_root(e.rhs, primitive_root(e.lhs)[1]) is not None
        assert built == ([desc.reduced.lhs] if expected else []), e
        levels += expected
    assert levels == 166
    for (w, u), e in zip(MINIMIZATIONS_PER_ANCHOR, anchors):
        minimized.clear()
        describe_variety(e)
        assert len(minimized) == MINIMIZATIONS_PER_ANCHOR[w, u], (w, u, minimized)


@pytest.mark.parametrize("argv,code,levels", [
    ("classify --w xxyy", 0, 1),
    ("classify --w (xxyy)^2", 0, 1),
    ("classify --w xyxy", 1, 1),
    ("solve --w xxyy --u 1", 0, 0),
])
def test_one_minimal_level_per_cli_left_side(monkeypatch, capsys, argv, code, levels):
    """``classify`` and ``solve`` build one level per left side, on its
    root, and only when a step reads it: refusing a primitive root reads it
    once, and a trivial right side never reads it."""
    built = []

    class Counting(MinimalLevel):
        def __init__(self, w):
            built.append(w)
            super().__init__(w)

    monkeypatch.setattr(solver, "MinimalLevel", Counting)
    assert cli.main(argv.split() + ["--format", "structured"]) == code
    capsys.readouterr()
    assert len(built) == levels, built


def test_powered_equations_describe_as_their_roots():
    """``w^n = u^n`` describes as ``w = u`` in every field but the equation,
    for every equation of the minimization corpus with ``u != 1`` and ``w``
    not a proper power: n-th roots are unique in a free group."""
    compared = 0
    for e in _minimization_corpus():
        if not e.rhs or primitive_root(e.lhs)[1] > 1:
            continue
        desc = describe_variety(e)
        for n in (2, 3):
            powered = Equation(AB, power(e.lhs, n), power(e.rhs, n))
            assert describe_variety(powered) == dataclasses.replace(desc, equation=powered), (e, n)
            compared += 1
    assert compared == 306


def test_left_side_classification_matches_describe_classification():
    """A ``LeftSide`` of its own classifies the root of its word.  On the
    minimization corpus it refuses the left side of every parametric
    description, and classifies the unreduced left side of every jsj
    description as describe does."""
    squares = [eq(multiply(w, w), multiply(u, u)) for w, u in JSJ_ANCHORS]
    compared = refused = powers = 0
    for e in _minimization_corpus() + squares:
        desc = describe_variety(e)
        if desc.kind == KIND_PARAMETRIC:
            with pytest.raises(WordError, match="parametric"):
                LeftSide(e.lhs).classification
            refused += 1
        elif desc.kind == KIND_JSJ:
            assert LeftSide(e.lhs).classification == desc.classification, e
            compared += 1
        else:
            continue
        powers += desc.reduced != e
    assert (compared, refused, powers) == (74, 77, 10)


def test_canonical_generator_inverses_match_greedy_inversion():
    """Each generator's inverse, the product of its factors' inverses, is
    the inverse that greedy shortening computes."""
    compared = 0
    for e in _minimization_corpus():
        desc = describe_variety(e)
        if desc.kind != KIND_JSJ:
            continue
        for g in desc.generators:
            assert g.aut.inverse == nielsen_inverse(g.aut), (e, g.name)
            assert g.aut.compose(g.aut.inverse).is_identity()
        compared += 1
    assert compared == 70
    for w, u in JSJ_ANCHORS:
        desc = describe(w, u)
        c = desc.generator_by_symbol("c")
        inverse = nielsen_inverse(c.aut)
        assert generate_orbit(desc, 0, "C") == apply_to_solution(inverse, desc.minimal[0])


def test_classifications_carry_their_inverses():
    """Each classification's automorphism carries its case's standard form
    onto the left side: an edge-splitting basis, the product of the moves
    that reached it, rewrites the left side into <x, Yxy>, and a qh
    automorphism, carried on the minimal level, takes XYxy to it.  Its
    inverse, and the inverse of each parametric family's automorphism,
    whose y-image recovers the parameter, are the greedy inverses, on every
    left side of at most 6 letters in both variables that is not a proper
    power."""
    counts, bases = {}, set()
    edge_group = build_subgroup_graph(VARIABLES, ["x", "Yxy"])
    for w in words_upto(VARIABLES, 6):
        if {c.lower() for c in w} != {"x", "y"} or primitive_root(w)[1] > 1:
            continue
        try:
            cls = LeftSide(w).classification
        except WordError:
            family = describe(w, "ab").parametric
            assert family.aut.inverse == nielsen_inverse(family.aut), w
            counts["parametric"] = counts.get("parametric", 0) + 1
            continue
        aut = cls.aut or IDENTITY
        if cls.kind == CASE_HNN:
            assert edge_group.contains(aut.inverse.apply(w)), w
            bases.add(aut)
        elif cls.kind == CASE_QH:
            assert aut.apply("XYxy") == w, w
        assert aut.compose(aut.inverse).is_identity(), w
        assert aut.inverse == nielsen_inverse(aut), w
        counts[cls.kind] = counts.get(cls.kind, 0) + 1
    assert counts == {"parametric": 400, "hnn": 464, "qh": 24, "rigid": 440}
    assert len(bases) == 40


def _recorded_calls(monkeypatch, name, equations):
    """``(args, result)`` for every call of ``solver.<name>`` that describing
    ``equations`` and reading the ``orbits`` of each description runs."""
    calls = []
    real = getattr(solver, name)

    def recording(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(solver, name, recording)
    for e in equations:
        describe_variety(e).orbits
    monkeypatch.undo()
    return calls


# LARGE_U holds the other two |u| = 10-12 commutators.
COMMUTATOR_U12 = ("[x,y]", "[aaab,bab]")


def _walk_corpus():
    """The minimization corpus and the third |u| = 10-12 commutator."""
    w, u = COMMUTATOR_U12
    return _minimization_corpus() + [eq(parse_word(w, "xy"), parse_word(u, "ab"))]


def test_orbit_walk_matches_evaluating_oracle(monkeypatch):
    """Images built by junction-only products, with c as conjugation by u,
    give every walk that a description's ``orbits`` runs exactly as
    evaluating each generator image does."""
    walks = _recorded_calls(monkeypatch, "orbit_walk", _walk_corpus())
    assert len(walks) == 73
    assert max(len(visited) for _, visited in walks) == 319
    for (seed, gens, rhs), visited in walks:
        assert visited == evaluating_orbit_walk(seed, gens, rhs), seed


def test_descend_matches_the_walk_minimum(monkeypatch):
    """From each seed describe descends, and from every pair of that seed's
    walk, descent reaches the least pair of the walk, on the walk corpus and
    the |w| <= 6 probe."""
    seeds = _recorded_calls(monkeypatch, "descend", _walk_corpus() + probe_equations(6))
    pairs = 0
    for (seed, gens, rhs), _ in seeds:
        walk = orbit_walk(seed, gens, rhs)
        least = min(walk, key=pair_key)
        for pair in walk:
            assert descend(pair, gens, rhs) == least, (seed, pair)
        pairs += len(walk)
    assert (len(seeds), pairs) == (827, 13979)


@pytest.mark.parametrize("w,u,printed,smaller", [
    ("xyXY", "aBBBBAbbbb", ("aBBB", "BA"), ("ab", "BBBB")),
    ("xyXY", "ABBBabbb", ("ABB", "Ba"), ("Ab", "BBB")),
    ("xYxy", "bAABabAbAABaBA", ("bABabAbABaBA", "abAbABaBA"), ("bAABabAbABaBAbaB", "bAB")),
])
def test_descent_ends_at_a_local_minimum(w, u, printed, smaller):
    """ROADMAP item 24: a printed minimal pair is a representative found by
    descent, not always the least pair of its orbit.  Descent fixes it, and
    its walk holds a pair with a smaller ``pair_key``, which descent fixes too."""
    desc = describe(w, u)
    gens, rhs = desc.generators, desc.reduced.rhs
    assert printed in desc.minimal and descend(printed, gens, rhs) == printed
    walk = orbit_walk(printed, gens, rhs)
    assert min(walk, key=pair_key) == smaller and pair_key(smaller) < pair_key(printed)
    assert descend(smaller, gens, rhs) == smaller


@functools.lru_cache(maxsize=None)
def _descent_descriptions():
    anchors = [_orbit_description(i) for i in range(len(ORBIT_EQUATIONS))]
    probe = [d for d in map(describe_variety, probe_equations(5)) if d.kind == KIND_JSJ]
    return tuple(d for d in anchors + probe if d.minimal)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_descend_returns_orbit_members_to_their_minimal_solution(data):
    """A word of 1-8 canonical generators carries a minimal solution to a
    pair, which can lie far outside any walk's ball; descent from it
    returns to the minimal solution."""
    descriptions = _descent_descriptions()
    desc = data.draw(st.sampled_from(descriptions))
    index = data.draw(st.integers(0, len(desc.minimal) - 1))
    symbols = "".join(g.symbol + g.symbol.upper() for g in desc.generators)
    sigma = data.draw(st.text(alphabet=symbols, min_size=1, max_size=8))
    pair = generate_orbit(desc, index, sigma)
    assert descend(pair, desc.generators, desc.reduced.rhs) == desc.minimal[index]


def test_solution_actions_match_apply_to_solution():
    """Every generator and inverse acts on a solution as ``apply_to_solution``
    does, on each minimal solution and on members reached by random words
    in the generators; a proper power's ``c`` conjugates by its reduced
    right side."""
    rng = random.Random(15)
    power = describe(parse_word("(xxyy)^2", "xy"), parse_word("(aabb)^2", "ab"))
    descriptions = [d for d in map(describe_variety, _walk_corpus()) if d.kind == KIND_JSJ]
    compared = 0
    for desc in descriptions + [power]:
        rhs = desc.reduced.rhs
        actions = [(g, inverse) for g in desc.generators for inverse in (False, True)]
        members = list(desc.minimal)
        for sol in desc.minimal:
            for _ in range(3):
                pair = sol
                for _ in range(rng.randint(1, 6)):
                    g, inverse = rng.choice(actions)
                    pair = apply_to_solution(g.aut.inverse if inverse else g.aut, pair)
                members.append(pair)
        for pair in members:
            assert desc.reduced.holds_for(*pair)
            values = solver._values(pair) | {"u": (rhs, invert(rhs)), "U": (invert(rhs), rhs)}
            for g, inverse in actions:
                expected = apply_to_solution(g.aut.inverse if inverse else g.aut, pair)
                assert solver._act(values, solver._images(g, inverse), math.inf) == expected
                compared += 1
    assert compared > 1000
    assert power.reduced.rhs == "aabb"
    for i, (g1, g2) in enumerate(power.minimal):
        assert generate_orbit(power, i, "c") == (conjugate(g1, "aabb"), conjugate(g2, "aabb"))


ORBIT_EQUATIONS = JSJ_ANCHORS + (("[x,y]", "[aab,ba]"), ("(xxyy)^2", "(aabb)^2"))


@functools.lru_cache(maxsize=None)
def _orbit_description(i):
    w, u = ORBIT_EQUATIONS[i]
    return describe(parse_word(w, "xy"), parse_word(u, "ab"))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_generate_orbit_matches_an_evaluate_fold(data):
    desc = _orbit_description(data.draw(st.integers(0, len(ORBIT_EQUATIONS) - 1)))
    index = data.draw(st.integers(0, len(desc.minimal) - 1))
    symbols = "".join(g.symbol + g.symbol.upper() for g in desc.generators)
    sigma = data.draw(st.text(alphabet=symbols, max_size=8))
    pair = desc.minimal[index]
    for c in sigma:
        g = desc.generator_by_symbol(c.lower())
        pair = apply_to_solution(g.aut if c.islower() else g.aut.inverse, pair)
    assert generate_orbit(desc, index, sigma) == pair


def test_describe_walks_without_evaluate(monkeypatch):
    """Inside ``orbit_walk`` ``evaluate`` never runs while ``[x,y] = [a,b]``
    is described and its orbits are read, though it runs outside it."""
    counts = {"inside": 0, "outside": 0}
    depth = [0]

    def counting(fn):
        def wrapper(*args):
            counts["inside" if depth[0] else "outside"] += 1
            return fn(*args)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name.startswith("freeq.") and hasattr(module, "evaluate"):
            monkeypatch.setattr(module, "evaluate", counting(module.evaluate))
    walk = solver.orbit_walk

    def walking(*args):
        depth[0] += 1
        try:
            return walk(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(solver, "orbit_walk", walking)
    desc = describe(parse_word("[x,y]", "xy"), parse_word("[a,b]", "ab"))
    assert desc.status == STATUS_OK
    assert [len(orbit) for orbit in desc.orbits] == [319]
    assert counts["inside"] == 0
    assert counts["outside"] > 0


def test_hnn_description_golden():
    desc = describe("xxyy", "aabb")
    assert desc.kind == KIND_JSJ
    assert desc.formula == FORMULA_HNN
    assert desc.classification.kind == CASE_HNN
    assert desc.minimal == (("a", "b"),)
    assert [g.symbol for g in desc.generators] == ["c", "t", "p"]


def test_qh_description_golden():
    desc = describe("XYxy", "ABab")
    assert desc.kind == KIND_JSJ
    assert desc.formula == FORMULA_ORBIT
    assert desc.classification.kind == CASE_QH
    assert ("a", "b") in desc.minimal
    symbols = [g.symbol for g in desc.generators]
    assert symbols[:3] == ["c", "d", "e"]


def test_rigid_description_golden():
    desc = describe("xxxyyy", "aaabbb")
    assert desc.kind == KIND_JSJ
    assert desc.formula == FORMULA_CONJUGATES
    assert desc.classification.kind == CASE_RIGID
    assert desc.minimal == (("a", "b"),)


def test_generators_fix_lhs_and_act_on_solutions():
    for w, u in [("xxyy", "aabb"), ("XYxy", "ABab")]:
        desc = describe(w, u)
        lhs = desc.reduced.lhs
        for gen in desc.generators:
            assert gen.aut.apply(lhs) == lhs
            assert desc.generator_by_symbol(gen.symbol) is gen
            for sol in desc.minimal:
                moved = apply_to_solution(gen.aut, sol)
                assert desc.reduced.holds_for(*moved)


def _edges_covered_by_rhs(graph, u):
    walked = set()
    v = 0
    for c in u:
        nxt = graph.follow(v, c)
        assert nxt is not None
        walked.add((v, c, nxt) if c.islower() else (nxt, c.lower(), v))
        v = nxt
    return walked == set(graph.edges)


def _sums_gcd(word):
    return math.gcd(exponent_sum(word, "x"), exponent_sum(word, "y"))


def gated_candidates(e, oracle=refolding_terminal_candidates, extra=()):
    """The oracle's candidates for ``e``, once the gated walk is checked to
    return them filtered to each gcd of rewritten exponent sums among them,
    to one gcd absent from them, which keeps nothing, and to each gcd in
    ``extra``."""
    full = oracle(e)
    present = {_sums_gcd(rewritten) for _, rewritten in full}
    absent = next(g for g in range(len(present) + 1) if g not in present)
    for g in {*present, absent, *extra}:
        kept = tuple(item for item in full if _sums_gcd(item[1]) == g)
        assert terminal_candidates(e, g) == kept, (e, g)
    return full


def test_terminal_candidates_are_quotient_hosts():
    e = eq("xxyy", "aabb")
    candidates = gated_candidates(e)
    assert candidates
    for pair, expr in candidates:
        graph = build_subgroup_graph(AB, list(pair))
        assert graph.rank() == 2
        assert graph.contains("aabb")
        assert evaluate(expr, *pair) == "aabb"
        assert _edges_covered_by_rhs(graph, "aabb")


def test_terminal_candidates_complete_for_short_bases():
    """Cross-check against literal enumeration of short basis pairs."""
    e = eq("xxyy", "aabb")
    candidate_graphs = {
        build_subgroup_graph(AB, list(pair)) for pair, _ in gated_candidates(e)
    }
    short = [w for w in words_upto(AB, 3) if w]
    found = set()
    for v1 in short:
        for v2 in short:
            graph = build_subgroup_graph(AB, [v1, v2])
            if graph in found or graph.rank() != 2 or not graph.contains("aabb"):
                continue
            if _edges_covered_by_rhs(graph, "aabb"):
                found.add(graph)
    assert found <= candidate_graphs


def test_terminal_candidates_match_partition_oracle_exhaustively():
    for u in words_upto(AB, 5):
        if u:
            e = eq("xxyy", u)
            gated_candidates(e, partition_terminal_candidates)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.text(alphabet="abAB", min_size=6, max_size=8).map(reduce_word).filter(bool))
def test_terminal_candidates_match_partition_oracle(u):
    gated_candidates(eq("xxyy", u), partition_terminal_candidates)


def test_terminal_candidates_match_refolding_oracle():
    """Reading the basis off the walk's edge map as built gives the tuple
    that refolding, trimming and relabelling the map first gives, filtered
    by the gcd of the rewritten exponent sums."""
    for u in words_upto(AB, 6):
        if u:
            gated_candidates(eq("xxyy", u))
    rng = random.Random(163)
    for _ in range(4):
        u = ""
        while not 16 <= len(u) <= 24:
            u = reduce_word("".join(rng.choice("abAB") for _ in range(rng.randint(16, 30))))
        gated_candidates(eq("xxyy", u))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted({e.lhs for e in probe_equations(5)})),
    st.text(alphabet="abAB", max_size=10).map(reduce_word).filter(bool),
)
@example("xxyy", "aBAbbaBBabaBaaBAbAbb")
@example("xyXY", "abbAbaBabAABabbaBAbaBaab")
@example("xxxyy", "bbAAbaBAbabbaBBaaa")
def test_terminal_candidates_gate_matches_filtered_oracle(w, u):
    """For a left side's gcd, every gcd the candidates show and one they do
    not, the gated walk returns the refolding oracle's tuple filtered to that
    gcd of the rewritten exponent sums."""
    gated_candidates(eq(w, u), extra=[_sums_gcd(w)])


@pytest.mark.parametrize(
    "w,u,bases",
    [("[x,y]", "[aab,bba]", 2), ("xxyy", "(aab)^2(bab)^2", 1), ("xxxyyy", "aaabbb", 1)],
)
def test_gcd_gate_reads_few_bases(monkeypatch, w, u, bases):
    """Describe reads a basis only for the candidates that pass the gate:
    reading one for every candidate read 38, 38 and 10."""
    calls = []
    original = CoreGraph.canonical_basis

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CoreGraph, "canonical_basis", counting)
    describe(parse_word(w, "xy"), parse_word(u, "ab"))
    assert len(calls) == bases


def test_terminal_candidates_walk_is_not_recursive():
    """A walk over |u| = 300 runs inside 100 spare stack frames."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        candidates = gated_candidates(eq("xxyy", "a" * 299 + "b"))
    finally:
        sys.setrecursionlimit(limit)
    assert len(candidates) == 299


def _substituted_hnn_member(desc, n, m):
    """The edge-splitting family by hand: with p, t the splitting basis at
    the minimal solution and q = t^-1 p t, substitute p -> u^-n p u^n and
    t -> u^-n (t q^m) u^n into the solution's expression over (p, t)."""
    basis = desc.classification.aut
    inv = nielsen_inverse(basis)
    sol = desc.minimal[0]
    p_val = evaluate(basis.image_x, *sol)
    t_val = evaluate(basis.image_y, *sol)
    q_val = multiply(invert(t_val), p_val, t_val)
    c = power(desc.reduced.rhs, n)
    new_p = conjugate(p_val, c)
    new_t = conjugate(multiply(t_val, power(q_val, m)), c)
    return (evaluate(inv.image_x, new_p, new_t), evaluate(inv.image_y, new_p, new_t))


@pytest.mark.parametrize("w,u", [("xxyy", "aabb"), ("xYxy", "aBab")])
def test_generate_hnn_is_the_orbit_word_t_m_c_n(w, u):
    desc = describe(w, u)
    for n in range(-3, 4):
        for m in range(-3, 4):
            sigma = ("t" if m >= 0 else "T") * abs(m) + ("c" if n >= 0 else "C") * abs(n)
            member = generate_hnn(desc, 0, n, m)
            assert member == generate_orbit(desc, 0, sigma), (n, m)
            assert member == _substituted_hnn_member(desc, n, m), (n, m)


def test_generate_hnn_golden():
    desc = describe("xxyy", "aabb")
    assert generate_hnn(desc, 0, 0, 1) == ("aBA", "abb")
    assert generate_hnn(desc, 0, 0, -1) == ("aab", "BAb")
    rng = random.Random(131)
    for _ in range(30):
        n, m = rng.randint(-3, 3), rng.randint(-3, 3)
        g1, g2 = generate_hnn(desc, 0, n, m)
        assert evaluate("xxyy", g1, g2) == "aabb"


def test_generate_conjugates_matches_inner_action():
    for w, u in JSJ_ANCHORS:
        desc = describe(w, u)
        base = desc.minimal[0]
        for n in range(-3, 4):
            g1, g2 = generate_conjugates(desc, 0, n)
            shift = power(u, n)
            assert (g1, g2) == (conjugate(base[0], shift), conjugate(base[1], shift))
            assert evaluate(w, g1, g2) == u


def test_generate_orbit_golden():
    desc = describe("XYxy", "ABab")
    assert generate_orbit(desc, 0, "d") == ("ba", "b")
    assert generate_orbit(desc, 0, "e") == ("a", "ab")
    assert generate_orbit(desc, 0, "") == ("a", "b")
    assert generate_orbit(desc, 0, "dD") == ("a", "b")
    rng = random.Random(137)
    for _ in range(40):
        sigma = "".join(rng.choice("cdeCDE") for _ in range(rng.randint(0, 6)))
        g1, g2 = generate_orbit(desc, 0, sigma)
        assert evaluate("XYxy", g1, g2) == "ABab"
    with pytest.raises(WordError):
        generate_orbit(desc, 0, "t")  # no such generator symbol


def test_conjugation_generator_is_inner_by_lhs():
    desc = describe("xxyy", "aabb")
    gamma = desc.generator_by_symbol("c").aut
    assert gamma.apply("xxyy") == "xxyy"
    assert gamma.image_x == conjugate("x", "xxyy")
    moved = apply_to_solution(gamma, ("a", "b"))
    assert moved == (conjugate("a", "aabb"), conjugate("b", "aabb"))


def test_symmetries_form_a_subgroup_of_the_signed_permutations():
    """The signed letter permutations that keep a left side's conjugacy class
    form a subgroup of the order-8 group, so each left side has 0, 1 or 3
    symmetries besides the identity; a seventh would not fit the six
    symmetry symbols."""
    sizes = {}
    for w in words_upto(VARIABLES, 8):
        if {c.lower() for c in w} != {"x", "y"} or cyclic_normal_form(w) != w:
            continue
        kept = [p for p in TYPE1_AUTOMORPHISMS if cyclic_normal_form(p.apply(w)) == w]
        abelian = {(p.image_x, p.image_y) for p in kept}
        for p in kept:
            for q in kept:
                assert (p.compose(q).image_x, p.compose(q).image_y) in abelian, w
        n = len(_symmetry_generators(w))
        assert n == len(kept) - 1, w
        sizes[n] = sizes.get(n, 0) + 1
    assert sorted(sizes) == [0, 1, 3]


def test_a_seventh_symmetry_raises(monkeypatch):
    monkeypatch.setattr(solver, "_symmetry_generators", lambda w: [IDENTITY] * 7)
    with pytest.raises(IndexError):
        LeftSide("xxyy").generators


def test_two_level_family():
    assert two_level_member(1, 0) == ("Ba", "Bab")
    assert two_level_conjugator(1) == "ABabABaa"
    assert FIRST_LEVEL_LHS == reduce_word(multiply(power(commutator("x", "y"), 2), "x"))
    assert mega_word()  # nonempty and reduced by construction
    for n in range(-2, 3):
        for m in range(-2, 3):
            assert verify_two_level(*two_level_member(n, m))


def test_minimal_solutions_sorted_and_verified():
    for w, u in [("xxyy", "aabb"), ("XYxy", "ABab")]:
        desc = describe(w, u)
        assert list(desc.minimal) == sorted(desc.minimal, key=pair_key)
        for sol in desc.minimal:
            assert desc.reduced.holds_for(*sol)
