"""Brute-force enumeration and certification against descriptions."""

import dataclasses

import pytest
from conftest import (
    closure_uncovered,
    probe_equations,
    reducing_kth_root,
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
    Alphabet,
    WordError,
    evaluate,
    exponent_sum,
    invert,
    kth_root,
    multiply,
    pair_key,
    pair_rank,
    parse_word,
    power,
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
    [("xxxyyy", "aaabbb", 11, 3), ("xxyy", "aaaa", 10, 19), ("xxyy", "aabb", 9, 25)],
)
def test_certify_single_run_at_larger_balls(w, u, max_len, total):
    # Radii past the benchmark's; the totals match the reduce-based root
    # route (``reducing_kth_root`` in conftest.py).
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
