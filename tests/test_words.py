"""Word arithmetic, cyclic structure, enumeration, parsing."""

import random

import pytest
from conftest import (
    is_reduced,
    letter_tuple_shortlex_key,
    recursive_words_of_length,
    reducing_cyclic_reduce,
    reducing_kth_root,
    reducing_power,
    reducing_primitive_root,
    rotating_conjugating_word,
    rotating_cyclic_normal_form,
    substitute,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from freeq.graphs import build_subgroup_graph
from freeq.words import (
    Alphabet,
    ParseError,
    VARIABLES,
    WordError,
    commutator,
    conjugate,
    conjugating_word,
    count_words_upto,
    cyclic_core,
    cyclic_length,
    cyclic_normal_form,
    cyclic_reduce,
    evaluate,
    exponent_sum,
    format_word,
    invert,
    kth_root,
    multiply,
    pair_key,
    pair_rank,
    parse_word,
    power,
    primitive_root,
    reduce_word,
    shortlex_key,
    words_upto,
)

AB = Alphabet.from_string("ab")
ABC = Alphabet.from_string("abc")


def random_word(rng, alphabet, max_len):
    letters = [c for a in alphabet.letters for c in (a, a.upper())]
    return reduce_word("".join(rng.choice(letters) for _ in range(rng.randint(0, max_len))))


def test_reduce_basic():
    assert reduce_word("abB") == "a"
    assert reduce_word("aA") == ""
    assert reduce_word("") == ""
    assert reduce_word("abAB") == "abAB"
    # cancellation can cascade through the whole word
    assert reduce_word("abBA") == ""
    assert reduce_word("aabBAA") == ""


def test_reduce_idempotent_random():
    rng = random.Random(7)
    for _ in range(500):
        raw = "".join(rng.choice("abAB") for _ in range(rng.randint(0, 14)))
        w = reduce_word(raw)
        assert reduce_word(w) == w
        assert is_reduced(w)


def test_invert():
    assert invert("aBc") == "CbA"
    assert invert("") == ""
    rng = random.Random(11)
    for _ in range(200):
        w = random_word(rng, AB, 10)
        assert invert(invert(w)) == w
        assert multiply(w, invert(w)) == ""


def test_multiply_and_power():
    assert multiply("ab", "Ba") == "aa"
    assert multiply("a", "A") == ""
    assert multiply("ab", "BA", "ab") == "ab"
    assert power("ab", 3) == "ababab"
    assert power("ab", -2) == "BABA"
    assert power("ab", 0) == ""
    assert power("aBA", 2) == "aBBA"


def test_conjugate_commutator():
    assert conjugate("b", "a") == "Aba"
    assert commutator("a", "b") == "ABab"
    rng = random.Random(5)
    for _ in range(100):
        g = random_word(rng, AB, 6)
        h = random_word(rng, AB, 6)
        assert conjugate(conjugate(g, h), invert(h)) == g
        assert multiply(commutator(g, h), invert(commutator(g, h))) == ""


def test_cyclic_reduce():
    core, conj = cyclic_reduce("Aba")
    assert (core, conj) == ("b", "a")
    rng = random.Random(3)
    for _ in range(300):
        w = random_word(rng, AB, 12)
        core, conj = cyclic_reduce(w)
        assert multiply(invert(conj), core, conj) == w
        assert cyclic_length(w) == len(core)
        if core:
            assert core[-1] != core[0].swapcase()
            # a cyclically reduced word stays put
            assert cyclic_core(core) == core


def test_cyclic_normal_form_rotation_invariant():
    rng = random.Random(17)
    for _ in range(200):
        w = random_word(rng, AB, 10)
        core = cyclic_core(w)
        if not core:
            continue
        k = rng.randrange(len(core))
        rotated = core[k:] + core[:k]
        assert cyclic_normal_form(rotated) == cyclic_normal_form(core)
    assert cyclic_normal_form("ba") == "ab"
    assert cyclic_normal_form("Aba") == "b"


def test_conjugating_word():
    rng = random.Random(23)
    for _ in range(200):
        v = random_word(rng, AB, 8)
        h = random_word(rng, AB, 6)
        w = conjugate(v, h)
        found = conjugating_word(v, w)
        assert found is not None
        assert conjugate(v, found) == w
    assert conjugating_word("a", "b") is None
    assert conjugating_word("ab", "ba") == "a"
    assert conjugating_word("a", "aa") is None


def test_exponent_sum():
    assert exponent_sum("aabA", "a") == 1
    assert exponent_sum("aabA", "b") == 1
    assert exponent_sum("ABab", "a") == 0
    assert exponent_sum("", "a") == 0


def test_pair_rank_matches_subgroup_graph_rank():
    # The commutation test reads off the rank that folding computes.
    ball = list(words_upto(AB, 3))
    pairs = [(g1, g2) for g1 in ball for g2 in ball]
    pairs += [(power(r, i), power(r, j)) for r in ball for i in range(-3, 4) for j in range(-3, 4)]
    for g1, g2 in pairs:
        assert pair_rank(g1, g2) == build_subgroup_graph(AB, [g1, g2]).rank(), (g1, g2)
    ball = list(words_upto(ABC, 2))
    for g1 in ball:
        for g2 in ball:
            assert pair_rank(g1, g2) == build_subgroup_graph(ABC, [g1, g2]).rank(), (g1, g2)


def test_primitive_root():
    assert primitive_root("abab") == ("ab", 2)
    assert primitive_root("aa") == ("a", 2)
    assert primitive_root("ab") == ("ab", 1)
    with pytest.raises(WordError):
        primitive_root("")
    # roots of conjugated powers keep the conjugator
    assert primitive_root("abbA") == ("abA", 2)
    rng = random.Random(29)
    for _ in range(200):
        w = random_word(rng, AB, 5)
        if not w:
            continue
        n = rng.randint(1, 4)
        root, e = primitive_root(power(w, n))
        assert power(root, e) == power(w, n)
        assert e % n == 0 or power(w, n) == ""


def test_evaluate():
    assert evaluate("XYxy", "a", "b") == "ABab"
    assert evaluate("xy", "a", "A") == ""
    assert evaluate("xxyy", "a", "b") == "aabb"
    # coefficient letters pass through untouched
    assert evaluate("xay", "b", "b") == "bab"


def test_evaluate_is_homomorphism():
    rng = random.Random(31)
    xy = Alphabet.from_string("xy")
    for _ in range(300):
        w1 = random_word(rng, xy, 8)
        w2 = random_word(rng, xy, 8)
        gx = random_word(rng, AB, 5)
        gy = random_word(rng, AB, 5)
        lhs = evaluate(multiply(w1, w2), gx, gy)
        rhs = multiply(evaluate(w1, gx, gy), evaluate(w2, gx, gy))
        assert lhs == rhs
        assert evaluate(invert(w1), gx, gy) == invert(evaluate(w1, gx, gy))


def test_substitute():
    assert substitute("xYx", {"x": "ab", "y": "c"}) == "abCab"
    assert substitute("xz", {"x": "a"}) == "az"


def test_word_enumeration():
    ball = list(words_upto(AB, 3))
    assert len(ball) == count_words_upto(AB, 3) == 1 + 4 + 12 + 36
    assert ball == sorted(ball, key=shortlex_key)


@pytest.mark.parametrize("alphabet,bound", [(AB, 8), (ABC, 5)])
def test_peeling_word_functions_match_reducing_oracles(alphabet, bound):
    # power, cyclic_reduce and primitive_root trust reduced input and peel it
    # by index; on every reduced word of the ball they agree with the
    # re-reducing versions.
    for w in words_upto(alphabet, bound):
        assert cyclic_reduce(w) == reducing_cyclic_reduce(w), w
        if w:
            assert primitive_root(w) == reducing_primitive_root(w), w
        for n in range(-4, 5):
            assert power(w, n) == reducing_power(w, n), (w, n)


# Reduced words over letters from both ends of the alphabet, often proper
# powers of a conjugate so that the rotation and root searches meet periodic
# cores and peeled conjugators.
_letters = st.text(alphabet="aAbBxXyY", max_size=12).map(reduce_word)
_words = st.one_of(
    _letters,
    st.tuples(_letters, _letters, st.integers(1, 4)).map(
        lambda t: conjugate(power(t[0], t[2]), t[1])),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_words, _words, st.integers(0, 30))
def test_rotation_word_functions_match_rotation_loops(v, h, shift):
    # cyclic_normal_form, conjugating_word and primitive_root find their
    # rotation in one pass over the doubled core; the oracles try every
    # rotation in turn.
    assert cyclic_normal_form(v) == rotating_cyclic_normal_form(v)
    core = cyclic_core(v)
    if core:
        k = shift % len(core)
        rotated = conjugate(core[k:] + core[:k], h)
        assert conjugating_word(v, rotated) == rotating_conjugating_word(v, rotated)
        assert primitive_root(v) == reducing_primitive_root(v)
    assert conjugating_word(v, h) == rotating_conjugating_word(v, h)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_words, _words)
def test_shortlex_key_orders_as_letter_tuples(v, w):
    assert (shortlex_key(v) < shortlex_key(w)) == (
        letter_tuple_shortlex_key(v) < letter_tuple_shortlex_key(w))
    assert (shortlex_key(v) == shortlex_key(w)) == (v == w)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_words, st.integers(-5, 5).filter(bool), st.integers(-3, 3))
def test_kth_root_matches_reducing_oracle_on_powers(w, k, m):
    for v in (w, power(w, k * m)):
        assert kth_root(v, k) == reducing_kth_root(v, k), (v, k)


@pytest.mark.parametrize("alphabet", [Alphabet.from_string("a"), AB, ABC])
def test_level_enumeration_matches_recursive_oracle(alphabet):
    for n in range(8):
        ball = list(words_upto(alphabet, n))
        assert ball == [w for m in range(n + 1) for w in recursive_words_of_length(alphabet, m)]
        assert len(ball) == count_words_upto(alphabet, n)


def test_shortlex_order():
    assert sorted(["B", "a", "b", "A"], key=shortlex_key) == ["a", "A", "b", "B"]
    assert shortlex_key("b") < shortlex_key("aa")
    assert pair_key(("a", "b")) < pair_key(("a", "ba"))


def test_alphabet():
    assert Alphabet.from_string("ba").letters == ("a", "b")
    assert "a" in AB and "A" in AB and "c" not in AB
    assert str(AB) == "ab"
    with pytest.raises(WordError):
        Alphabet.from_string("a1")
    with pytest.raises(WordError):
        AB.check_word("ac")
    assert VARIABLES.letters == ("x", "y")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("xy", "xy"),
        ("x y", "xy"),
        ("1", ""),
        ("x^-2", "XX"),
        ("(ab)^2", "abab"),
        ("[x,y]", "XYxy"),
        ("[x,y]^2 x", "XYxyXYxyx"),
        ("[a, b^2]", "ABBabb"),
        ("xX", ""),
        ("X", "X"),
    ],
)
def test_parse_word(text, expected):
    allowed = "xyab"
    assert parse_word(text, allowed) == expected


@pytest.mark.parametrize("bad", ["x^", "(xy", "[x y]", "x)", "c", "x^z", "^2"])
def test_parse_word_rejects(bad):
    with pytest.raises(ParseError):
        parse_word(bad, "xyab")


def test_parse_respects_allowed_letters():
    with pytest.raises(ParseError):
        parse_word("a", "xy")
    assert parse_word("a", "ab") == "a"


def test_format_word():
    assert format_word("") == "1"
    assert format_word("aB") == "aB"
