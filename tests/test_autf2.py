"""Rank-two automorphisms: validation, moves, minimization, orbits."""

import math
import random

import pytest
from conftest import (
    NIELSEN_MOVES,
    applying_whitehead_minimize,
    commutator_normalizer,
    greedy_is_basis_pair,
    nielsen_inverse,
    nielsen_move,
    orbit_automorphism,
    pairs_in_search_order,
    primitive_closed_form,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from freeq.autf2 import (
    AutF2,
    IDENTITY,
    INVERSION_MOVES,
    MinimalLevel,
    NotAnAutomorphism,
    PRODUCT_MOVES,
    TYPE1_AUTOMORPHISMS,
    TYPE2_AUTOMORPHISMS,
    TYPE1_INVERSES,
    WHITEHEAD_AUTOMORPHISMS,
    WHITEHEAD_INVERSES,
    _act,
    _length_changes,
    _values,
    inner,
    is_basis_pair,
    is_primitive,
    whitehead_minimize,
)
from freeq.solver import _BASIS_INVERSES, _basis_walk, _BasisWalk
from freeq.words import (
    VARIABLES,
    Alphabet,
    WordError,
    conjugate,
    cyclic_core,
    cyclic_length,
    cyclic_normal_form,
    evaluate,
    exponent_sum,
    invert,
    multiply,
    reduce_word,
    words_upto,
)

XY = Alphabet.from_string("xy")
ALL_MOVES = PRODUCT_MOVES + INVERSION_MOVES


def random_aut(rng, steps=6):
    """A random composite of elementary moves applied to the identity."""
    pair = ("x", "y")
    for _ in range(rng.randint(1, steps)):
        pair = nielsen_move(rng.choice(NIELSEN_MOVES), pair)
    return AutF2(*pair)


def random_word(rng, max_len):
    return reduce_word("".join(rng.choice("xyXY") for _ in range(rng.randint(0, max_len))))


def test_accepts_bases():
    AutF2("yx", "y")
    AutF2("y", "x")
    AutF2("X", "y")
    AutF2("xyx", "xy")


@pytest.mark.parametrize("images", [("xx", "y"), ("xy", "yx"), ("x", "X"), ("x", ""), ("XYxy", "y")])
def test_rejects_non_bases(images):
    with pytest.raises(NotAnAutomorphism):
        AutF2(*images)


def test_apply_is_homomorphism():
    rng = random.Random(61)
    for _ in range(200):
        aut = random_aut(rng)
        w1, w2 = random_word(rng, 8), random_word(rng, 8)
        assert aut.apply(multiply(w1, w2)) == multiply(aut.apply(w1), aut.apply(w2))
        assert aut.apply(invert(w1)) == invert(aut.apply(w1))


def test_compose_and_inverse():
    rng = random.Random(67)
    for _ in range(150):
        a = random_aut(rng)
        b = random_aut(rng)
        w = random_word(rng, 8)
        # compose follows function application: (a . b)(w) = a(b(w))
        assert a.compose(b).apply(w) == a.apply(b.apply(w))
        assert a.compose(nielsen_inverse(a)).is_identity()
        assert nielsen_inverse(a).compose(a).is_identity()
    assert IDENTITY.apply("xYx") == "xYx"


def test_inner():
    rng = random.Random(71)
    for _ in range(100):
        g = random_word(rng, 6)
        w = random_word(rng, 6)
        assert inner(g).apply(w) == conjugate(w, g)
    assert nielsen_inverse(inner("x")).apply("y") == "xyX"


def test_inner_rejects_foreign_letters():
    with pytest.raises(WordError):
        inner("xa")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, len(WHITEHEAD_AUTOMORPHISMS) - 1), st.booleans()),
        max_size=6,
    ),
    st.text(alphabet="xyXY", max_size=4),
)
def test_trusted_products_pass_validation(steps, g):
    # compose and inner skip the basis check; the validating constructor
    # must accept every automorphism they build, unchanged.  The inverse
    # composed alongside, from the tabled inverses, is the greedy inverse.
    aut = inverse = IDENTITY
    for index, inverted in steps:
        step, step_inverse = WHITEHEAD_AUTOMORPHISMS[index], WHITEHEAD_INVERSES[index]
        if inverted:
            step, step_inverse = step_inverse, step
        aut, inverse = step.compose(aut), inverse.compose(step_inverse)
    for built in (aut, inverse, inner(g).compose(aut), inner(g)):
        assert AutF2(built.image_x, built.image_y) == built
    assert inverse.compose(aut).is_identity()
    assert inverse == nielsen_inverse(aut)


def test_abelianized_determinant_is_unit():
    rng = random.Random(73)
    for _ in range(150):
        (p, q), (r, s) = random_aut(rng).abelianized()
        assert p * s - q * r in (1, -1)


def test_abelian_splitting_test_matches_rewritten_y_exponent():
    """With phi = AutF2(p, t), phi^-1(w) has zero y-exponent exactly when
    p_x w_y == p_y w_x: the test the edge-splitting search makes at every
    basis of its walk, checked on every basis of the bound-6 walk.  Each
    line of the walk lists, in walk order, exactly the bases that pass the
    test for a word whose exponent sums lie on that line."""
    walk = _basis_walk(6)
    n = 0
    while walk.reaches(n):
        n += 1
    sample = ["xxxyyy", "XYxy", "xYxy", "xxyXy"]
    sample += random.Random(89).sample(list(words_upto(VARIABLES, 5)), 12)
    sums = [(exponent_sum(p, "x"), exponent_sum(p, "y")) for p, _ in walk.pairs]
    for (p, t), (px, py) in zip(walk.pairs, sums):
        basis_inverse = nielsen_inverse(AutF2(p, t))
        for w in sample:
            wx, wy = exponent_sum(w, "x"), exponent_sum(w, "y")
            rewritten = basis_inverse.apply(w)
            assert (px * wy == py * wx) == (exponent_sum(rewritten, "y") == 0), (p, t, w)
    for w in sample:
        wx, wy = exponent_sum(w, "x"), exponent_sum(w, "y")
        d = math.gcd(wx, wy) or 1
        passing = [i for i, (px, py) in enumerate(sums) if px * wy == py * wx]
        assert walk.lines.get((wx // d, wy // d), []) == passing, w
    for (lx, ly), indices in walk.lines.items():
        assert indices == [i for i, (px, py) in enumerate(sums) if px * ly == py * lx], (lx, ly)
    assert sum(map(len, walk.lines.values())) == 3 * n
    assert n == len(walk.pairs) == 904


def test_inverse_of_signed_permutations():
    # The tabled inverse of each signed permutation is the greedy inverse,
    # which reads it off letter by letter; the greedy inverse of the
    # permutation alone and behind a random automorphism composes to the
    # identity both ways.
    rng = random.Random(79)
    for perm, perm_inverse in zip(TYPE1_AUTOMORPHISMS, TYPE1_INVERSES):
        assert perm_inverse == nielsen_inverse(perm), perm
        for aut in (perm, random_aut(rng).compose(perm), perm.compose(random_aut(rng))):
            inv = nielsen_inverse(aut)
            assert inv.compose(aut) == IDENTITY, aut
            assert aut.compose(inv) == IDENTITY, aut


def test_move_matches_its_automorphism():
    # Each move constant is the move formula applied to (x, y), in the
    # formula's order; the formula on a random basis is that basis composed
    # with the constant, and the action of the constant's images on it.
    # The basis walk's tabled inverse of each move is its greedy inverse.
    rng = random.Random(83)
    assert len(ALL_MOVES) == len(NIELSEN_MOVES) == len(_BASIS_INVERSES) == 18
    for move, formula, inverse in zip(ALL_MOVES, NIELSEN_MOVES, _BASIS_INVERSES):
        assert (move.image_x, move.image_y) == nielsen_move(formula, ("x", "y"))
        assert inverse == nielsen_inverse(move) and move.compose(inverse).is_identity()
        base = random_aut(rng)
        replayed = nielsen_move(formula, (base.image_x, base.image_y))
        composed = base.compose(move)
        assert replayed == (composed.image_x, composed.image_y)
        assert replayed == _act(_values((base.image_x, base.image_y)), (move.image_x, move.image_y))


def test_basis_walk_follows_the_move_formula_order():
    """Every basis walk up to bound 8, walked to its end from a fresh start,
    lists the pairs in the breadth-first order of the move formula."""
    for bound in range(2, 9):
        walk = _BasisWalk(bound)
        n = 0
        while walk.reaches(n):
            n += 1
        assert tuple(walk.pairs) == pairs_in_search_order(bound), bound


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, len(WHITEHEAD_AUTOMORPHISMS) - 1), max_size=8),
    st.lists(st.integers(0, len(WHITEHEAD_AUTOMORPHISMS) - 1), max_size=8),
    st.text(alphabet="xyXY", max_size=12),
    st.text(alphabet="xyXY", max_size=12),
    st.integers(0, 40),
)
def test_action_matches_evaluate(first, second, w, v, ball):
    """``apply``, ``compose`` and ``_act`` agree with ``words.evaluate`` on
    products of Whitehead automorphisms, built by evaluation, and on words
    that need not be reduced; with a ball, ``_act`` gives None exactly when
    the evaluated images are longer than the ball."""
    auts = []
    for steps in (first, second):
        images = ("x", "y")
        for index in steps:
            t = WHITEHEAD_AUTOMORPHISMS[index]
            images = (evaluate(images[0], t.image_x, t.image_y),
                      evaluate(images[1], t.image_x, t.image_y))
        auts.append(AutF2(*images))
    a, b = auts
    images = (a.image_x, a.image_y)
    assert a.apply(w) == evaluate(w, *images)
    composed = a.compose(b)
    assert (composed.image_x, composed.image_y) == (
        evaluate(b.image_x, *images), evaluate(b.image_y, *images))
    pair = (reduce_word(w), reduce_word(v))
    values = _values(pair)
    expected = (evaluate(a.image_x, *pair), evaluate(a.image_y, *pair))
    assert _act(values, images) == expected
    assert _act(values, (w, v)) == (evaluate(w, *pair), evaluate(v, *pair))
    within = len(expected[0]) + len(expected[1]) <= ball
    assert _act(values, images, ball) == (expected if within else None)


def test_apply_rejects_foreign_letters():
    # u and U are letters of the solver's value table, not of an automorphism's.
    for w in ("xa", "xu", "U"):
        with pytest.raises(WordError):
            IDENTITY.apply(w)


def test_is_basis_pair():
    assert is_basis_pair("x", "y")
    assert is_basis_pair("yx", "y")
    assert not is_basis_pair("xx", "y")
    assert not is_basis_pair("xy", "yx")
    assert not is_basis_pair("XYxy", "y")
    # unimodular abelianization, but shortening stalls short of a permutation
    assert not is_basis_pair("x", "yyxY")
    rng = random.Random(89)
    for _ in range(100):
        a = random_aut(rng)
        assert is_basis_pair(a.image_x, a.image_y)
    # The commutator test agrees with greedy shortening on every pair of the
    # radius-4 ball.
    ball = list(words_upto(XY, 4))
    for w1 in ball:
        for w2 in ball:
            assert is_basis_pair(w1, w2) == greedy_is_basis_pair(w1, w2), (w1, w2)


def test_whitehead_counts():
    assert len(TYPE1_AUTOMORPHISMS) == 8
    assert len(TYPE2_AUTOMORPHISMS) == 12
    assert len(WHITEHEAD_AUTOMORPHISMS) == 20
    assert len(WHITEHEAD_INVERSES) == 20
    for t, inverse in zip(WHITEHEAD_AUTOMORPHISMS, WHITEHEAD_INVERSES):
        assert inverse == nielsen_inverse(t)
        assert t.compose(inverse).is_identity()


def test_whitehead_minimize_golden():
    form, aut, _ = whitehead_minimize("xyX")
    assert form == "y"
    assert aut.apply("xyX") == "y"


def test_whitehead_minimize_properties():
    rng = random.Random(97)
    for _ in range(150):
        w = random_word(rng, 9)
        form, aut, _ = whitehead_minimize(w)
        assert aut.apply(w) == form
        assert cyclic_normal_form(form) == form
        # local minimality over the whole generating set
        for sigma in WHITEHEAD_AUTOMORPHISMS:
            assert cyclic_length(sigma.apply(form)) >= len(form)


def test_length_changes_match_applied_moves():
    """Whitehead's cut count gives the change in cyclic length under every
    type-2 move: checked against applying the move to every cyclically
    reduced word of length 1-8."""
    words = [w for w in words_upto(VARIABLES, 8) if w and cyclic_core(w) == w]
    for w in words:
        applied = [cyclic_length(t.apply(w)) - len(w) for t in TYPE2_AUTOMORPHISMS]
        assert _length_changes(w) == applied, w
    assert len(words) == 4 + 9852


def random_reduced_word(rng, n):
    word = rng.choice("xyXY")
    while len(word) < n:
        word += rng.choice([c for c in "xyXY" if c != word[-1].swapcase()])
    return word


def test_whitehead_minimize_matches_applying_oracle():
    """Applying only the moves of the least change in length picks the image
    and automorphism that applying all twelve moves picks, and the inverse
    carried step by step is the inverse, on every word of length at most 6
    and on random words of 9-20 letters."""
    rng = random.Random(113)
    words = list(words_upto(VARIABLES, 6))
    words += [random_reduced_word(rng, rng.randint(9, 20)) for _ in range(400)]
    for w in words:
        form, aut, inverse = whitehead_minimize(w)
        assert (form, aut) == applying_whitehead_minimize(w), w
        assert aut.compose(inverse).is_identity(), w
        assert inverse == nielsen_inverse(aut), w


def checked_carry(level, target):
    """The automorphism of ``level.carry(target)``, once the inverse carried
    with it is checked against the greedy inverse."""
    carried = level.carry(target)
    if carried is None:
        return None
    aut, inverse = carried
    assert aut.compose(inverse).is_identity(), target
    assert inverse == nielsen_inverse(aut), target
    return aut


def level_carry(source, target):
    return checked_carry(MinimalLevel(source), target)


# The per-pair search oracle and the lookup on a fresh minimal level.
ORBIT_MATCHERS = (orbit_automorphism, level_carry)


def test_orbit_automorphism_golden():
    for match in ORBIT_MATCHERS:
        for source, target in [("XYxy", "xyXY"), ("xyXY", "XYxy")]:
            aut = match(source, target)
            assert aut is not None
            assert aut.apply(source) == target


def test_orbit_automorphism_exactness():
    for match in ORBIT_MATCHERS:
        rng = random.Random(101)
        for _ in range(40):
            w = random_word(rng, 6)
            if not w:
                continue
            image = random_aut(rng).apply(w)
            aut = match(w, image)
            assert aut is not None
            assert aut.apply(w) == image


def test_orbit_automorphism_distinguishes():
    for match in ORBIT_MATCHERS:
        assert match("xxyy", "xy") is None  # exponent invariant differs
        assert match("XYxy", "xxyy") is None
        assert match("x", "y") is not None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.text(alphabet="xyXY", max_size=8),
    st.lists(st.lists(st.integers(0, len(WHITEHEAD_AUTOMORPHISMS) - 1), max_size=4),
             min_size=1, max_size=3),
)
def test_minimal_level_carries_whitehead_images(w, products):
    """Each image of ``w`` under a product of at most four Whitehead
    automorphisms, looked up in turn on one level, is carried to exactly,
    by the automorphism the per-pair search finds."""
    w = reduce_word(w)
    level = MinimalLevel(w)
    for product in products:
        phi = IDENTITY
        for index in product:
            phi = WHITEHEAD_AUTOMORPHISMS[index].compose(phi)
        image = phi.apply(w)
        aut = checked_carry(level, image)
        assert aut is not None and aut.apply(w) == image, (w, image)
        assert aut == orbit_automorphism(w, image), (w, image)


def test_minimal_level_lookups_in_any_order_match_orbit_search():
    """One level per word, grown by lookups of the word's Whitehead images in
    a shuffled order, answers each as a fresh per-pair search does: what was
    looked up before changes no path."""
    rng = random.Random(109)
    for w in sorted({cyclic_normal_form(w) for w in words_upto(XY, 4)} - {""}):
        images = sorted({t.apply(w) for t in WHITEHEAD_AUTOMORPHISMS})
        rng.shuffle(images)
        level = MinimalLevel(w)
        for image in images:
            assert checked_carry(level, image) == orbit_automorphism(w, image), (w, image)


def test_level_paths_carry_their_inverses():
    """On the level of every cyclic normal form of length at most 6, walked
    whole, the minimizer and every form's path carry their inverses."""
    forms = 0
    for w in sorted({cyclic_normal_form(w) for w in words_upto(XY, 6)} - {""}):
        level = MinimalLevel(w)
        assert not level._reaches("")  # no form is empty: the walk runs to the end
        assert level.inverse == nielsen_inverse(level.aut), w
        for form, (path, inverse, image) in level.reached.items():
            assert path.apply(level.minimal) == image and cyclic_normal_form(image) == form
            assert path.compose(inverse).is_identity(), (w, form)
            assert inverse == nielsen_inverse(path), (w, form)
        forms += len(level.reached)
    assert forms == 1940


def test_is_primitive():
    assert is_primitive("x") is not None
    assert is_primitive("xY") is not None
    assert is_primitive("xx") is None
    assert is_primitive("XYxy") is None
    rng = random.Random(103)
    for _ in range(40):
        w = random_aut(rng).apply(rng.choice("xXyY"))
        witness = is_primitive(w)
        assert witness is not None
        assert witness.apply(w) == "x"
        assert witness == orbit_automorphism(w, "x"), w
        assert witness == primitive_closed_form(w), w
    # The level lookup finds the automorphism the orbit search and the
    # closed form by Whitehead minimization find.
    for w in words_upto(XY, 7):
        expected = orbit_automorphism(w, "x")
        assert primitive_closed_form(w) == expected, w
        assert checked_carry(MinimalLevel(w), "x") == expected, w


def test_commutator_normalizer():
    assert commutator_normalizer("XYxy") == IDENTITY
    assert commutator_normalizer("xxyy") is None
    assert MinimalLevel("XYxy").carry("XYxy") == (IDENTITY, IDENTITY)
    # The level lookup finds the automorphism the orbit search and Nielsen's
    # closed form find.
    for w in words_upto(XY, 7):
        expected = orbit_automorphism(w, "XYxy")
        assert commutator_normalizer(w) == expected, w
        assert checked_carry(MinimalLevel(w), "XYxy") == expected, w


def test_primitive_words_conjugation_closed():
    # primitivity only depends on the conjugacy class
    rng = random.Random(107)
    for _ in range(30):
        w = random_aut(rng).apply("x")
        g = random_word(rng, 5)
        assert is_primitive(conjugate(w, g)) is not None

