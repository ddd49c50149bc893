"""Brute-force enumeration and certification against descriptions."""

import dataclasses
from math import gcd

import pytest
from conftest import (
    apply_to_solution,
    automorphism,
    closure_uncovered,
    full_ball_single_run,
    probe_equations,
    reducing_kth_root,
    short_core_single_run,
    unseeded_walk_uncovered,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeq import oracle, solver
from freeq.graphs import build_subgroup_graph
from freeq.oracle import (
    _conjugate_pair_shape,
    _rank1_in_ball,
    _single_run_shape,
    _trivial_in_ball,
    brute_force_solutions,
    certify,
)
from freeq.solver import (
    KIND_JSJ,
    STATUS_OK,
    Equation,
    describe_variety,
    rank1_family,
    solve_trivial_rhs,
)
from freeq.words import (
    VARIABLES,
    Alphabet,
    WordError,
    cyclic_core,
    cyclic_length,
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
A = Alphabet.from_string("a")
ABC = Alphabet.from_string("abc")


def eq(w, u, alphabet=AB):
    return Equation(alphabet, w, u)


def naive_scan(e, max_len):
    """The textbook double loop, no shortcuts; for cross-checking."""
    ball = list(words_upto(e.alphabet, max_len))
    return {(g1, g2) for g1 in ball for g2 in ball if evaluate(e.lhs, g1, g2) == e.rhs}


def test_pair_rank():
    assert pair_rank("", "") == 0
    assert pair_rank("a", "aa") == 1
    assert pair_rank("a", "") == 1
    assert pair_rank("a", "b") == 2
    assert pair_rank("ab", "ba") == 2


def test_brute_golden_commutator():
    result = brute_force_solutions(eq("XYxy", "ABab"), 1)
    assert result.solutions == (("a", "b", 2),)


def test_brute_golden_trivial():
    result = brute_force_solutions(eq("xxyy", ""), 2)
    assert len(result.solutions) == 17
    assert all(g2 == invert(g1) for g1, g2, _ in result.solutions)


def test_brute_matches_naive_scan():
    cases = [
        eq("xyx", "aba"),      # single run of y
        eq("xxyy", "aabb"),    # single run of y
        eq("xy", "ab"),
        eq("xYxy", "abb"),     # conjugate pair of y
        eq("xyxy", "abab"),    # abelianization filter
        eq("xxyXyXYY", "aabAbABB"),  # both exponent sums zero
        eq("xxy", "aa", A),    # one-letter alphabet
    ]
    for e in cases:
        result = brute_force_solutions(e, 3)
        assert set(result.pairs()) == naive_scan(e, 3), e


def single_run_word(z, a, k, b):
    """s^a z^k s^b over the variables, s being the other variable."""
    s = "x" if z == "y" else "y"
    return multiply(power(s, a), power(z, k), power(s, b))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from("xy"),
    st.integers(-3, 3),
    st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)),
    st.integers(-3, 3),
    st.sampled_from(("planted", "identity", "letter")),
    st.sampled_from(list(words_upto(AB, 2))),
    st.sampled_from(list(words_upto(AB, 2))),
    st.integers(0, 3),
)
@example("y", 2, 3, 0, "planted", "ab", "b", 3)  # xxyyy: k does not divide a+b
@example("y", 2, 4, 0, "letter", "", "", 3)  # xxyyyy = a: 4 divides no 1 - 2·ab(g)
@example("y", 2, 2, 0, "letter", "", "", 3)  # xxyy = a: k | a+b, k does not divide ab(u)
@example("y", 3, 3, 0, "planted", "a", "a", 3)  # xxxyyy = a^6: the commuting sweep
@example("y", -3, 2, 0, "planted", "ab", "b", 3)  # XXXyy: negative exponents
@example("y", 3, 3, 0, "planted", "ab", "A", 3)  # u = abababAAA: |u| = 9, ‖u‖ = 7
@example("y", 2, 2, 0, "planted", "a", "a", 3)  # xxyy = aaaa: only the powers of a
@example("y", -2, 2, 0, "planted", "", "ab", 3)  # XXyy = (ab)^2: only the powers of ab
def test_single_run_elimination_matches_naive_scan(z, a, k, b, kind, g1, g2, max_len):
    # The root route must find exactly the pairs of the full double loop.
    w = single_run_word(z, a, k, b)
    assert _single_run_shape(w) is not None
    u = {"planted": evaluate(w, g1, g2), "identity": "", "letter": "a"}[kind]
    equation = eq(w, u)
    expected = naive_scan(equation, max_len)
    assert set(brute_force_solutions(equation, max_len).pairs()) == expected
    if kind == "planted" and max_len >= 2:
        assert (g1, g2) in expected


def bounded_single_run(w, least_n):
    """Is ``w`` a cyclically reduced, non-power single run s^a z^k s^b with
    |a+b| >= least_n and |k| >= 2?  With least_n = 3 a non-trivial u takes
    the short-core scan (|k| = 2) or the two-sided read (|k| >= 3); with
    least_n = 2 a proper-power u scans only its root's powers."""
    shape = _single_run_shape(w)
    return (cyclic_core(w) == w and primitive_root(w)[1] == 1 and shape is not None
            and abs(shape[1] + shape[3]) >= least_n and abs(shape[2]) >= 2)


SHORT_CORE_LHS = [w for w in words_upto(VARIABLES, 7) if w and bounded_single_run(w, 3)]
SHORT_CORE_PLANTS = (("a", "b"), ("a", "a"), ("ab", "b"), ("aB", "A"), ("", "ab"), ("ab", ""),
                     ("ab", "bA"), ("aab", "ba"))


def test_brute_short_core_route_matches_full_ball_oracle():
    # Every left side the short-core scan and the two-sided read serve with
    # |w| <= 7, against the loop over the whole ball: all u with |u| <= 3,
    # planted values (commuting ones included) and powers of a root, at L=4.
    # The plant (a, b) has ‖g‖ equal to the bound on every left side, and
    # (ab, bA) on 20 of them, so a bound one smaller would miss them.
    assert len(SHORT_CORE_LHS) == 176
    small = list(words_upto(AB, 3))
    for w in SHORT_CORE_LHS:
        z, a, k, b = _single_run_shape(w)
        planted = [evaluate(w, g1, g2) for g1, g2 in SHORT_CORE_PLANTS]
        for u in dict.fromkeys(small + planted + ["aaaaaa", "ababab"]):
            expected = full_ball_single_run(AB, a, k, b, u, 4)
            if z == "x":
                expected = {(root, g) for g, root in expected}
            assert set(brute_force_solutions(eq(w, u), 4).pairs()) == expected, (w, u)


READ_LHS = [w for w in SHORT_CORE_LHS if abs(_single_run_shape(w)[2]) >= 3]


def test_brute_read_route_matches_full_ball_oracle_at_radius_5():
    # The two-sided read's left sides with |w| <= 7, against the loop over
    # the radius-5 ball, on every planted value that is not a proper power.
    assert len(READ_LHS) == 80
    tested = 0
    for w in READ_LHS:
        z, a, k, b = _single_run_shape(w)
        for u in dict.fromkeys(evaluate(w, g1, g2) for g1, g2 in SHORT_CORE_PLANTS):
            if u and primitive_root(u)[1] == 1:
                expected = full_ball_single_run(AB, a, k, b, u, 5)
                if z == "x":
                    expected = {(root, g) for g, root in expected}
                assert set(brute_force_solutions(eq(w, u), 5).pairs()) == expected, (w, u)
                tested += 1
    assert tested == 428


@pytest.mark.parametrize(
    "w,u,max_len,total",
    [("xxxyyy", "aaabbb", 13, 5), ("xxxyyy", "aaabbb", 15, 5),
     ("xxxxyyy", evaluate("xxxxyyy", "ab", "b"), 12, 2),
     ("xxxxyyy", evaluate("xxxxyyy", "aB", "b"), 12, 2),
     ("xxxyyyy", evaluate("xxxyyyy", "ab", "b"), 12, 2),
     ("xxxyyyy", evaluate("xxxyyyy", "aB", "b"), 12, 2)],
)
def test_brute_read_route_matches_short_core_oracle(w, u, max_len, total):
    # Radii whose balls are too large to loop over (3 188 645 words at L=13):
    # the oracle tests every ball word within the cancellation bound instead.
    z, a, k, b = _single_run_shape(w)
    expected = short_core_single_run(AB, a, k, b, u, max_len)
    assert len(expected) == total
    assert set(brute_force_solutions(eq(w, u), max_len).pairs()) == expected


CORES = st.text("aAbB", min_size=1, max_size=3).map(reduce_word).filter(
    lambda h: h and cyclic_core(h) == h)
CONJUGATORS = st.text("aAbB", max_size=4).map(reduce_word)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(CORES, CORES, CONJUGATORS, CONJUGATORS, st.integers(-3, 3),
       st.sampled_from((-5, -4, -3, 3, 4, 5)), st.sampled_from((-4, -3, 3, 4)))
@example("a", "b", "", "ab", 3, 3, 3)  # f = ab: aaa·BA·bbb·ab cancels nowhere
@example("a", "Abb", "", "", 3, 3, 3)  # |r| > |h|: only the r-side read names (a, Abb)
@example("a", "b", "aB", "b", 0, -3, -3)  # (baB, b) is at m = 1, the sweep's last
def test_read_route_finds_planted_pairs(h, r, c, d, a, n, k):
    # A non-commuting plant g = c^-1 h c, z = d^-1 r d of s^a z^k s^(n-a):
    # brute force at the plant's radius finds it, and only solutions.
    g, z = multiply(invert(c), h, c), multiply(invert(d), r, d)
    if multiply(g, z) == multiply(z, g):
        return
    w = single_run_word("y", a, k, n - a)
    u = evaluate(w, g, z)
    pairs = brute_force_solutions(eq(w, u), max(len(g), len(z))).pairs()
    assert (g, z) in pairs
    assert all(evaluate(w, *pair) == u for pair in pairs)


def test_read_route_makes_the_same_reads_at_every_radius(monkeypatch):
    # xxxyyy = aaabbb: brute force tests the 2·(L // 6) + 1 powers of u as
    # values of s, each with one value table (_values) and one k-th root, and
    # takes 4 k-th roots more, its reads, at L=9 and at L=30.  xxxyy = aaabb
    # (|k| = 2) tests exactly the short-core values and the longer powers of
    # u that its abelianization keeps.
    tested, roots = [], [0]
    values, kth_root = oracle._values, oracle.kth_root

    def recording(pair):
        tested.append(pair[0])
        return values(pair)

    def counting(*args):
        roots[0] += 1
        return kth_root(*args)

    monkeypatch.setattr(oracle, "_values", recording)
    monkeypatch.setattr(oracle, "kth_root", counting)
    for max_len in (9, 30):
        tested.clear()
        roots[0] = 0
        brute_force_solutions(eq("xxxyyy", "aaabbb"), max_len)
        span = max_len // 6
        assert sorted(tested) == sorted(power("aaabbb", i) for i in range(-span, span + 1))
        assert roots[0] - len(tested) == 4
    tested.clear()
    brute_force_solutions(eq("xxxyy", "aaabb"), 9)
    values = oracle._short_core_words(AB, 1, 9) + [power("aaabb", i) for i in (-1, 1)]
    kept = [g for g in values
            if (3 - 3 * exponent_sum(g, "a")) % 2 == 0 and (2 - 3 * exponent_sum(g, "b")) % 2 == 0]
    assert sorted(tested) == sorted(kept) and len(kept) == 164


PROPER_POWER_LHS = [w for w in words_upto(VARIABLES, 7) if w and bounded_single_run(w, 2)]
PROPER_POWERS = [u for u in words_upto(AB, 4) if u and primitive_root(u)[1] > 1]
COMMUTING_PLANTS = (("a", "a"), ("ab", "ab"), ("ab", "BA"), ("aB", "aBaB"))


def test_brute_proper_power_route_matches_full_ball_oracle():
    # Every left side the route serves with |w| <= 7, against the loop over
    # the whole ball at L=4: every proper power u with |u| <= 4, and the
    # proper-power values of commuting plants, so that the powers of u's
    # root hold solutions.
    assert len(PROPER_POWER_LHS) == 240 and len(PROPER_POWERS) == 28
    tested = 0
    for w in PROPER_POWER_LHS:
        z, a, k, b = _single_run_shape(w)
        planted = [evaluate(w, g1, g2) for g1, g2 in COMMUTING_PLANTS]
        for u in dict.fromkeys(PROPER_POWERS + [v for v in planted if v and primitive_root(v)[1] > 1]):
            expected = full_ball_single_run(AB, a, k, b, u, 4)
            if z == "x":
                expected = {(root, g) for g, root in expected}
            assert set(brute_force_solutions(eq(w, u), 4).pairs()) == expected, (w, u)
            tested += 1
    assert tested == 7310
    # The benchmark's input: the ball of 13 121 words holds 15 solutions.
    pairs = set(brute_force_solutions(eq("xxyy", "aaaa"), 8).pairs())
    assert len(pairs) == 15 and pairs == full_ball_single_run(AB, 2, 2, 0, "aaaa", 8)


def test_proper_power_rhs_tests_only_the_root_powers(monkeypatch):
    # xxyy = aaaa at L=8 takes the 17 powers of a, not the 13 121 ball
    # words; xxyy = aabb, not a proper power, still takes the whole ball.
    calls = [0]
    kth_root = oracle.kth_root

    def counting(*args):
        calls[0] += 1
        return kth_root(*args)

    monkeypatch.setattr(oracle, "kth_root", counting)
    brute_force_solutions(eq("xxyy", "aaaa"), 8)
    assert calls[0] == 17
    calls[0] = 0
    brute_force_solutions(eq("xxyy", "aabb"), 4)
    assert calls[0] == len(list(words_upto(AB, 4)))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    st.text("aAbB", max_size=10).map(reduce_word),
    st.text("aAbB", max_size=10).map(reduce_word),
    st.integers(-3, 3),
    st.sampled_from((-5, -4, -3, -2, 2, 3, 4, 5)),
    st.sampled_from((-5, -4, -3, -2, 2, 3, 4, 5)),
)
@example("ab", "a", 1, 2, 2)
@example("aab", "ab", 0, 3, -2)
def test_no_proper_power_value_at_a_non_commuting_pair(g, r, j, n, k):
    # Lyndon–Schützenberger (1962), which the proper-power route and step 6
    # of the solver rely on: g^n z^k with |n|, |k| >= 2 is a proper power
    # only if g and z commute.  z = g^j r shares much of g's period, so
    # that the product can come close to a power.
    z = multiply(power(g, j), r)
    if len(z) <= 10 and multiply(g, z) != multiply(z, g):
        assert primitive_root(multiply(power(g, n), power(z, k)))[1] == 1, (g, z, n, k)


def test_brute_single_run_with_k_one_scans_the_whole_ball():
    # |k| = 1 is outside the short-core branch: (|k|-2)·‖z‖ has no lower
    # bound there, and (aab, (aab)^-3 a) solves xxxy = a with ‖g‖ = 3 > ‖u‖.
    e = eq("xxxy", "a")
    pairs = set(brute_force_solutions(e, 8).pairs())
    assert ("aab", "BAABAABA") in pairs
    assert pairs == full_ball_single_run(AB, 3, 1, 0, "a", 8)


def cancellation_slack(g, z, n, k):
    """‖g^n z^k‖ - ((|n|-2)‖g‖ + (|k|-2)‖z‖ + 2·gcd(‖g‖, ‖z‖) + 2), which
    the bound behind the short-core route says is non-negative when g and z
    do not commute."""
    cg, cz = cyclic_length(g), cyclic_length(z)
    bound = (abs(n) - 2) * cg + (abs(k) - 2) * cz + 2 * gcd(cg, cz) + 2
    return cyclic_length(multiply(power(g, n), power(z, k))) - bound


def test_cancellation_bound_on_the_radius_4_ball():
    # Every non-commuting pair.  Swapping (g, n) with (z, k) or inverting
    # both exponents keeps the cyclic length, so n = 2 and n = 3 cover every
    # exponent of size 2 or 3.
    ball = list(words_upto(AB, 4))
    for g in ball:
        for z in ball:
            if multiply(g, z) != multiply(z, g):
                for n, k in ((2, 2), (2, -2), (3, 2), (3, -2), (3, 3), (3, -3)):
                    assert cancellation_slack(g, z, n, k) >= 0, (g, z, n, k)
    # The bound is sharp: a^3 b^3 cancels nothing.
    assert cancellation_slack("a", "b", 3, 3) == 0


RANDOM_WORDS = st.text("aAbB", max_size=6).map(reduce_word)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    RANDOM_WORDS,
    RANDOM_WORDS,
    RANDOM_WORDS,
    RANDOM_WORDS,
    st.sampled_from(("apart", "shared conjugator", "near inverse", "common root")),
    st.sampled_from((-5, -4, -3, -2, 2, 3, 4, 5)),
    st.sampled_from((-4, -3, -2, 2, 3, 4)),
)
@example("ab", "b", "a", "", "near inverse", 3, 3)
@example("ab", "a", "bb", "", "common root", -4, 2)
def test_cancellation_bound_on_random_pairs(h, r, c, d, relation, n, k):
    # g = c^-1 h c; z shares g's conjugator, inverts most of h, or is a
    # power of h times r, so that the two junctions can cancel much.
    z = {
        "apart": multiply(invert(d), r, d),
        "shared conjugator": multiply(invert(c), r, d, c),
        "near inverse": multiply(invert(c), invert(h), r, c),
        "common root": multiply(invert(c), h, h, r, c),
    }[relation]
    g = multiply(invert(c), h, c)
    if multiply(g, z) != multiply(z, g):
        assert cancellation_slack(g, z, n, k) >= 0


@pytest.mark.parametrize("alphabet,bound", [(AB, 8), (ABC, 5)])
def test_kth_root_matches_reducing_oracle(alphabet, bound):
    # One period test on the peeled core decides what the primitive root
    # decided on every word; on w^(k*m) both find the unique root w^m.
    for w in words_upto(alphabet, bound):
        for k in (-4, -3, -2, -1, 1, 2, 3, 4):
            assert kth_root(w, k) == reducing_kth_root(w, k), (w, k)
            for m in (-1, 2):
                assert kth_root(power(w, k * m), k) == power(w, m), (w, k, m)


def conjugate_pair_word(z, a, e, b, c):
    """s^a z^e s^b z^-e s^c over the variables, s being the other variable."""
    s = "x" if z == "y" else "y"
    return multiply(power(s, a), power(z, e), power(s, b), power(z, -e), power(s, c))


def test_conjugate_pair_shape_detection():
    for w in ("XYxy", "xYxy", "yXYx", "xyXy", "xxYxxy"):
        shape = _conjugate_pair_shape(w)
        assert shape is not None, w
        assert conjugate_pair_word(*shape) == w
    assert _conjugate_pair_shape("xYxy") == ("y", 1, -1, 1, 0)
    assert _conjugate_pair_shape("xyXy") == ("x", 0, 1, 1, 1)
    for w in ("xxyy", "xyxy", "xYxY", "xxyxy"):
        assert _conjugate_pair_shape(w) is None, w


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from("xy"),
    st.integers(-2, 2),
    st.sampled_from((1, -1)),
    st.sampled_from((-2, -1, 1, 2)),
    st.integers(-2, 2),
    st.sampled_from(("planted", "identity", "unsolvable")),
    st.sampled_from(list(words_upto(AB, 2))),
    st.sampled_from(list(words_upto(AB, 2))),
    st.integers(0, 3),
)
@example("y", 1, -1, -1, 0, "unsolvable", "", "", 3)  # xYXy = a: a+b+c = 0, ab(u) != 0
@example("y", 1, -1, 1, 0, "planted", "ab", "b", 3)  # xYxy: a+b+c = 2, one ab bucket
@example("x", -1, 1, 2, 0, "planted", "aB", "ab", 3)  # YxyyX: a+b+c = 1
def test_conjugate_pair_elimination_matches_naive_scan(z, a, e, b, c, kind, g1, g2, max_len):
    # The conjugacy route (or the single-run route, which some of these
    # words also fit) must find exactly the pairs of the full double loop.
    w = conjugate_pair_word(z, a, e, b, c)
    assert _conjugate_pair_shape(w) is not None
    u = {"planted": evaluate(w, g1, g2), "identity": "", "unsolvable": "a"}[kind]
    equation = eq(w, u)
    expected = naive_scan(equation, max_len)
    assert set(brute_force_solutions(equation, max_len).pairs()) == expected
    if kind == "unsolvable" and abs(a + b + c) != 1:
        # the abelianized left side is (a + b + c) times the value of s
        assert expected == set()
    if kind == "planted" and max_len >= 2:
        assert (g1, g2) in expected


# Reduced left sides with |w| <= 6 in both variables that take neither
# elimination route by their shape.  The abelianization filter picks the
# values of z, except for proper powers such as xyxy, which go by their root.
FILTERED_WORDS = [
    w for w in words_upto(Alphabet.from_string("xy"), 6)
    if "x" in w.lower() and "y" in w.lower()
    and _single_run_shape(w) is None and _conjugate_pair_shape(w) is None
]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from(FILTERED_WORDS),
    st.sampled_from(("planted", "identity", "letter")),
    st.sampled_from(list(words_upto(AB, 2))),
    st.sampled_from(list(words_upto(AB, 2))),
    st.integers(0, 3),
)
@example("xyyxYY", "planted", "ab", "b", 3)  # w_y = 0: z is x
@example("xyyxYY", "letter", "", "", 3)
def test_abelianization_filter_matches_naive_scan(w, kind, g1, g2, max_len):
    u = {"planted": evaluate(w, g1, g2), "identity": "", "letter": "a"}[kind]
    equation = eq(w, u)
    expected = naive_scan(equation, max_len)
    assert set(brute_force_solutions(equation, max_len).pairs()) == expected
    if kind == "planted" and max_len >= 2:
        assert (g1, g2) in expected


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from([v for v in words_upto(Alphabet.from_string("xy"), 3)
                     if "x" in v.lower() and "y" in v.lower()]),
    st.integers(2, 3),
    st.sampled_from(("planted", "identity", "letter")),
    st.sampled_from(list(words_upto(AB, 2))),
    st.sampled_from(list(words_upto(AB, 2))),
    st.integers(0, 3),
)
def test_proper_power_route_matches_naive_scan(v, n, kind, g1, g2, max_len):
    # v^n = u holds exactly when v is the unique n-th root of u.
    w = power(v, n)
    u = {"planted": evaluate(w, g1, g2), "identity": "", "letter": "a"}[kind]
    equation = eq(w, u)
    expected = naive_scan(equation, max_len)
    assert set(brute_force_solutions(equation, max_len).pairs()) == expected
    if kind == "planted" and max_len >= 2:
        assert (g1, g2) in expected


@pytest.mark.parametrize("w", ["xyyxy", "xyyxYY", "xxyXyXYY"])
@pytest.mark.parametrize("u", ["", "a", "abAAb"])
def test_abelianization_filter_tests_exactly_the_allowed_pairs(monkeypatch, w, u):
    # The filter tests each pair with w_x·ab(g1) + w_y·ab(g2) = ab(u) once,
    # and no other pair.
    tested = []
    holds_for = Equation.holds_for

    def recording(e, g1, g2):
        tested.append((g1, g2))
        return holds_for(e, g1, g2)

    monkeypatch.setattr(Equation, "holds_for", recording)
    e = eq(w, u)
    brute_force_solutions(e, 3)

    def ab(v):
        return tuple(exponent_sum(v, c) for c in "ab")

    wx, wy = exponent_sum(w, "x"), exponent_sum(w, "y")
    ball = list(words_upto(AB, 3))
    allowed = [(g1, g2) for g1 in ball for g2 in ball
               if tuple(wx * m + wy * n for m, n in zip(ab(g1), ab(g2))) == ab(u)]
    assert sorted(tested) == sorted(allowed)


def counting_conjugacy_tests(monkeypatch):
    """Count the calls of ``conjugating_word`` made by the oracle."""
    calls = [0]
    conjugating_word = oracle.conjugating_word

    def counting(*args):
        calls[0] += 1
        return conjugating_word(*args)

    monkeypatch.setattr(oracle, "conjugating_word", counting)
    return calls


def test_conjugate_pair_tests_only_the_allowed_bucket(monkeypatch):
    # xYxy = aBab forces 2·ab(g) = ab(aBab) = (2, 0): only the values g of x
    # with ab(g) = (1, 0) are tested for conjugacy.
    calls = counting_conjugacy_tests(monkeypatch)
    result = brute_force_solutions(eq("xYxy", "aBab"), 5)
    bucket = [g for g in words_upto(AB, 5) if (exponent_sum(g, "a"), exponent_sum(g, "b")) == (1, 0)]
    assert calls[0] == len(bucket)
    assert len(result.solutions) == 19


def test_conjugate_pair_with_zero_exponent_sum_tests_nothing(monkeypatch):
    # [x,y] has a+b+c = 0 and ab(ab) != 0: no value of x is tested.
    calls = counting_conjugacy_tests(monkeypatch)
    assert brute_force_solutions(eq("XYxy", "ab"), 5).solutions == ()
    assert calls[0] == 0


@pytest.mark.parametrize("w", ["xxyy", "XYxy", "xYxy", "xxyXyXYY"])
def test_unsolvable_abelianization_lists_no_ball(monkeypatch, w):
    # gcd(w_s, w_z) does not divide ab(a) = (1, 0) for a single run (2, 2),
    # a commutator (0, 0), a conjugate pair (2, 0) or a left side with both
    # exponent sums zero: brute force names no pair, so it lists no word of
    # the radius-40 ball.
    def listing(*args):
        raise AssertionError("the ball was listed")

    monkeypatch.setattr(oracle, "words_upto", listing)
    assert brute_force_solutions(eq(w, "a"), 40).solutions == ()


@pytest.mark.parametrize("w, u", [("xxyyy", "ab"), ("xYxy", "aBab")])
def test_routes_test_exactly_the_values_the_abelianization_keeps(monkeypatch, w, u):
    # A single run with k ∤ a+b over the whole ball, (a+b, k) = (2, 3), and
    # a conjugate pair with a+b+c = 2: the values g of s solved for z are
    # the ball words for which ab(u) - w_s·ab(g) is w_z times an integer
    # vector (is 0 when w_z = 0), each once.  Extra values would only waste
    # work, as holds_for drops the pairs they name.
    tested = []
    values = oracle._values

    def recording(pair):
        tested.append(pair[0])
        return values(pair)

    monkeypatch.setattr(oracle, "_values", recording)
    brute_force_solutions(eq(w, u), 4)
    ws, wz = exponent_sum(w, "x"), exponent_sum(w, "y")
    ball = list(words_upto(AB, 4))

    def allowed(g):
        rest = [exponent_sum(u, c) - ws * exponent_sum(g, c) for c in "ab"]
        return all(t % wz == 0 if wz else t == 0 for t in rest)

    kept = [g for g in ball if allowed(g)]
    assert sorted(tested) == sorted(kept)
    assert 0 < len(kept) < len(ball)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    st.sampled_from([w for w in words_upto(Alphabet.from_string("xy"), 4) if w]),
    st.sampled_from(("", "a", "aa", "ab", "abab", "abA", "aBBA", "abb", "aabAA")),
    st.integers(0, 3),
)
@example("xxyy", "", 4)  # roots up to the ball's length, conjugated ones too
@example("xy", "abb", 3)  # the root is as long as the ball: one power fits
@example("xxy", "aaabAAA", 4)  # |conj r| = 3 > 4/2: only r^0 fits
@example("xxxyy", "a" * 12, 4)  # (a^2, a^3) is n = -5 from the Bezout base (12, -12)
@example("XYxy", "", 3)  # both exponent sums zero: a two-generator lattice
def test_family_sweeps_match_naive_scan(w, u, max_len):
    # The commuting solutions of w = u are the rank-one family's members in
    # the ball, and every solution of w = 1 is a trivial-family member.
    e = eq(w, u)
    expected = {pair for pair in naive_scan(e, max_len) if pair_rank(*pair) < 2}
    if u:
        assert _rank1_in_ball(rank1_family(e), max_len) == expected
    else:
        assert _trivial_in_ball(solve_trivial_rhs(e), e, max_len) == expected


def rank1_sweep_trivial_in_ball(family, e, max_len):
    """The one-generator kernel lattice in the ball, as one rank-one family
    swept by ``_rank1_in_ball`` per root."""
    out = {("", "")}
    for r in words_upto(e.alphabet, max_len):
        if r and invert(r) >= r and primitive_root(r)[1] == 1:
            out |= _rank1_in_ball(solver.Rank1Family(r, (0, 0), family.generators[0]), max_len)
    return out


def test_one_generator_trivial_sweep_matches_the_rank1_sweep():
    """Every trivial-rhs w with |w| <= 5 whose kernel lattice has one
    generator, at every L <= 5.  The oracle reads only the generator, so it
    runs once per generator and radius."""
    expected, checked = {}, 0
    for w in words_upto(VARIABLES, 5):
        e = eq(w, "")
        family = solve_trivial_rhs(e)
        if len(family.generators) != 1:
            continue
        for max_len in range(6):
            key = (family.generators, max_len)
            if key not in expected:
                expected[key] = rank1_sweep_trivial_in_ball(family, e, max_len)
            assert _trivial_in_ball(family, e, max_len) == expected[key], (w, max_len)
            checked += 1
    assert (checked, len(expected)) == (2856, 120)


def test_certify_full_scan_at_larger_ball():
    # The naive double loop would test 1457^2 pairs here.
    e = eq("xyxy", "abab")
    report = certify(e, describe_variety(e), 6)
    assert report.covered
    assert report.total_solutions == 485


def test_certify_abelianization_filter_at_larger_ball():
    # xyyxYY takes neither elimination route and is no proper power.
    e = eq("xyyxYY", "abbaBB")
    report = certify(e, describe_variety(e), 6)
    assert report.covered
    assert report.total_solutions == 1


@pytest.mark.parametrize(
    "w,u,max_len,total",
    [("XYxy", "ABab", 6, 161), ("XYxy", "ABab", 7, 279), ("xYxy", "aBab", 6, 25)],
)
def test_brute_conjugate_pair_totals(w, u, max_len, total):
    # The naive double loop finds the same totals, but is too slow to run here at L=7.
    assert len(brute_force_solutions(eq(w, u), max_len).solutions) == total


@pytest.mark.parametrize(
    "w,u,max_len,total",
    [("xxxyyy", "aaabbb", 11, 3), ("xxxyyy", "aaabbb", 13, 5), ("xxxyyy", "aaabbb", 21, 7),
     ("xxxyyy", "aaabbb", 30, 9), ("xxyy", "aaaa", 10, 19), ("xxyy", "aabb", 9, 25),
     ("xxyy", "aaaa", 16, 31)],
)
def test_certify_single_run_at_larger_balls(w, u, max_len, total):
    # Radii past the benchmark's; the totals match the reduce-based root
    # route (``reducing_kth_root`` in conftest.py) and, at L=13, the loop
    # over the whole ball of 3 188 645 words.  At L=21 the total matches
    # ``short_core_single_run`` in conftest.py, which takes 1.2 s there; at
    # L=30 the 9 solutions are u-conjugates of (a, b) and (b, BBBabbb).  At
    # L=16 brute force tests the 33 powers of a, not the ball's 86 093 441
    # words; the 31 solutions are the lattice slice (a^m, a^(2-m)).
    e = eq(w, u)
    report = certify(e, describe_variety(e), max_len)
    assert report.covered
    assert report.total_solutions == total


def test_brute_sorted_and_tagged():
    result = brute_force_solutions(eq("xxyy", "aabb"), 5)
    pairs = result.pairs()
    assert list(pairs) == sorted(pairs, key=pair_key)
    for g1, g2, rank in result.solutions:
        assert rank == build_subgroup_graph(AB, [g1, g2]).rank()
    counts = result.rank_counts()
    assert sum(counts) == len(result.solutions)


def test_certify_walks_twisted_solutions_to_the_minimal_one():
    e = eq("XYxy", "ABab")
    desc = describe_variety(e)
    assert desc.minimal == (("a", "b"),)
    pairs = brute_force_solutions(e, 2).pairs()
    assert ("ba", "b") in pairs and ("a", "ab") in pairs
    report = certify(e, desc, 2)
    assert report.covered and report.uncovered == ()


def counting_walks(monkeypatch, module=oracle):
    """Count the calls of ``orbit_walk`` made through ``module``: certify's
    own walks by default; returns the one-item counter."""
    calls = [0]
    walk = module.orbit_walk

    def counting(*args, **kwargs):
        calls[0] += 1
        return walk(*args, **kwargs)

    monkeypatch.setattr(module, "orbit_walk", counting)
    return calls


@pytest.mark.parametrize(
    "w,u,max_len",
    [
        ("[x,y]", "[a,b]", 3),
        ("[x,y]", "[a,b]", 4),
        ("xYxy", "aBab", 4),
        ("xxyy", "aabb", 5),
        ("xxxyyy", "aaabbb", 5),
        ("(xxyy)^2", "(aabb)^2", 4),  # the orbits survive the proper-power path
    ],
)
def test_certify_starts_from_the_orbits_describe_walked(monkeypatch, w, u, max_len):
    """Every rank-two brute solution of these balls lies in a component of
    a minimal solution (``desc.orbits``), so certify walks from none of them."""
    e = eq(parse_word(w, "xy"), parse_word(u, "ab"))
    desc = describe_variety(e)
    assert desc.orbits
    calls = counting_walks(monkeypatch)
    report = certify(e, desc, max_len)
    assert report.covered
    assert calls[0] == 0
    if w == "(xxyy)^2":
        assert report.total_solutions == 3


@pytest.mark.parametrize("w,u", [("[x,y]", "[a,b]"), ("xxyy", "aabb"), ("(xxyy)^2", "(aabb)^2")])
def test_certify_walks_the_components_once_per_description(monkeypatch, w, u):
    """Describing walks no component; the first certify of a description
    walks each of its components once, and later certifies walk none."""
    calls = counting_walks(monkeypatch, solver)
    e = eq(parse_word(w, "xy"), parse_word(u, "ab"))
    desc = describe_variety(e)
    assert calls[0] == 0
    first = certify(e, desc, 3)
    assert first.covered
    assert calls[0] == len(desc.orbits) == len(desc.minimal)
    assert certify(e, desc, 4).covered
    assert certify(e, desc, 3) == first
    assert calls[0] == len(desc.orbits)


def test_certify_walk_matches_the_orbit_closure_on_the_planted_probe():
    # Every cyclic normal form |w| <= 5 in both variables, five planted pairs
    # each, certified at L=3: walking from each brute solution inside the
    # describe ball leaves exactly the pairs that the orbit closure of the
    # minimal solutions at radius L + 2|u| leaves uncovered.  Starting from
    # the description's orbits leaves the pairs that walking every rank-two
    # pair leaves.
    equations = probe_equations(5)
    assert len(equations) == 410
    jsj = 0
    for e in equations:
        desc = describe_variety(e)
        assert desc.status == STATUS_OK, e
        report = certify(e, desc, 3)
        if desc.kind == KIND_JSJ:
            jsj += 1
            brute = brute_force_solutions(e, 3)
            assert report.uncovered == closure_uncovered(brute, desc), e
            assert report.uncovered == unseeded_walk_uncovered(brute, desc), e
    assert jsj > 0


def test_certify_trivial_exact():
    e = eq("xxyy", "")
    report = certify(e, describe_variety(e), 3)
    assert report.covered
    assert report.family_exact
    assert report.total_solutions == 53
    assert report.rank_counts[2] == 0


def test_certify_hnn_covered():
    e = eq("xxyy", "aabb")
    report = certify(e, describe_variety(e), 5)
    assert report.covered
    assert report.uncovered == ()
    assert report.rank_counts == (0, 0, report.total_solutions)


@pytest.mark.parametrize(
    "w,u,max_len,minimal",
    [
        ("[x,y]", "[aab,ba]", 4, (("aab", "ba"),)),
        ("xxyy", "(aab)^2(bab)^2", 6, (("aab", "bab"),)),
        ("[x,y]", "[aab,bba]", 4, (("aab", "bba"),)),
    ],
)
def test_certify_long_rhs_covered(w, u, max_len, minimal):
    e = eq(parse_word(w, "xy"), parse_word(u, "ab"))
    desc = describe_variety(e)
    assert desc.status == STATUS_OK
    assert desc.minimal == minimal
    assert certify(e, desc, max_len).covered


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="psi = (YXy, Yxxxyy) fixes xxxyy and maps (a, b) to (BAb, Baaabb); "
    "psi = inner(y).(X, xxxy), and (X, xxxy) sends w to its rotation yxxxy, "
    "so _symmetry_generators, which tries only signed letter permutations, misses it",
)
def test_certify_rigid_rotation_symmetry():
    e = eq("xxxyy", "aaabb")
    report = certify(e, describe_variety(e), 6)
    assert report.uncovered == ()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="psi = (YXy, YxxyXy) fixes xxyXy and maps (a, b) to (BAb, BaabAb); "
    "psi = inner(y).(X, xxyX), and (X, xxyX) sends w to its rotation yxxyX, "
    "so _symmetry_generators, which tries only signed letter permutations, misses it",
)
def test_certify_rigid_rotation_symmetry_at_radius_6():
    e = eq("xxyXy", "aabAb")
    report = certify(e, describe_variety(e), 6)
    assert report.uncovered == ()


# Automorphisms phi that fix a rigid left side w and are not powers of c, the
# one canonical generator describe gives w, each with a right side u and a
# ball that holds phi's image of the minimal pair of w = u (ROADMAP item 1).
ITEM_1_STABILIZERS = (("xxyyy", "aabbb", ("xxyyyX", "xYX"), 6, ("aabbbA", "aBA")),)


@pytest.mark.parametrize("w,u,phi,max_len,image", ITEM_1_STABILIZERS)
def test_item_1_stabilizer_carries_a_minimal_pair_into_the_ball(w, u, phi, max_len, image):
    """phi fixes w, and its abelianization is not the identity, as that of
    every power of c is; its image of the minimal pair solves w = u."""
    phi, desc = automorphism(*phi), describe_variety(eq(w, u))
    assert phi.apply(w) == w and phi.abelianized() != ((1, 0), (0, 1))
    assert apply_to_solution(phi, desc.minimal[0]) == image
    assert desc.reduced.holds_for(*image) and max(map(len, image)) <= max_len


@pytest.mark.parametrize("w,u,phi,max_len,image", ITEM_1_STABILIZERS)
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the canonical generators miss phi, so certify "
                   "finds phi's image of the minimal pair uncovered")
def test_certify_covers_item_1_stabilizer_images(w, u, phi, max_len, image):
    e = eq(w, u)
    assert certify(e, describe_variety(e), max_len).uncovered == ()


@pytest.mark.parametrize("w,u,total", [("XYxy", "ABab", 361), ("xYxy", "aBab", 38)])
def test_certify_conjugate_pair_at_radius_8(w, u, total):
    e = eq(w, u)
    report = certify(e, describe_variety(e), 8)
    assert report.covered
    assert report.total_solutions == total


def test_certify_rank1_only():
    e = eq("xxyy", "aaaa")
    report = certify(e, describe_variety(e), 6)
    assert report.covered
    assert report.rank_counts[2] == 0
    assert report.rank_counts[1] == report.total_solutions


def test_certify_detects_damaged_description():
    """Dropping the minimal solutions must surface as uncovered pairs."""
    e = eq("xxyy", "aabb")
    desc = describe_variety(e)
    damaged = dataclasses.replace(desc, minimal=())
    report = certify(e, damaged, 5)
    assert not report.covered
    assert len(report.uncovered) > 0


def test_certify_rejects_unresolved():
    e = eq("xxyyxy", "aabbab")
    desc = describe_variety(e, hnn_max_bases=1)
    with pytest.raises(WordError):
        certify(e, desc, 4)


def test_certify_empty_kind():
    e = eq("xyxy", "aba")
    report = certify(e, describe_variety(e), 4)
    assert report.covered
    assert report.total_solutions == 0
