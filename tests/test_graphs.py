"""Subgroup graphs: folding, canonical bases, membership, rewriting."""

import random

import pytest
from conftest import naive_member, naive_nielsen_reduce, substitute
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freeq.graphs import (
    CoreGraph,
    NotInSubgroup,
    build_subgroup_graph,
    graph_from_edges,
)
from freeq.words import (
    Alphabet,
    invert,
    multiply,
    reduce_word,
    shortlex_key,
    words_upto,
)

AB = Alphabet.from_string("ab")


def random_word(rng, max_len, letters="abAB"):
    return reduce_word("".join(rng.choice(letters) for _ in range(rng.randint(1, max_len))))


# ---------------------------------------------------------------------------


def test_fold_identifies_redundant_generator():
    assert build_subgroup_graph(AB, ["ab", "b"]) == build_subgroup_graph(AB, ["a", "b"])


def test_whole_group_graph():
    g = build_subgroup_graph(AB, ["a", "b"])
    assert g.num_vertices == 1
    assert g.rank() == 2
    assert g.canonical_basis().generators == ("a", "b")


def test_fold_recovers_free_basis():
    g = build_subgroup_graph(AB, ["aa", "ab", "b"])
    assert g.canonical_basis().generators == ("a", "b")


def test_canonical_basis_golden():
    basis = build_subgroup_graph(AB, ["ab", "ba"]).canonical_basis()
    assert basis.generators == ("ab", "ba")


def test_membership_basics():
    g = build_subgroup_graph(AB, ["aa", "b"])
    assert g.contains("aab")
    assert g.contains("aaaa")
    assert g.contains("")
    assert not g.contains("a")
    assert not g.contains("aba")


def test_rank():
    assert build_subgroup_graph(AB, ["aa", "bb"]).rank() == 2
    assert build_subgroup_graph(AB, ["ab"]).rank() == 1
    assert build_subgroup_graph(AB, ["a", "A"]).rank() == 1
    # commutator subgroup witnesses stay rank 2 here
    assert build_subgroup_graph(AB, ["ABab", "a"]).rank() == 2


def wedge_edges(gens):
    """The unfolded wedge of loops at vertex 0 spelling the non-empty ``gens``."""
    edges, fresh = [], 1
    for w in filter(None, gens):
        path = [0, *range(fresh, fresh + len(w) - 1), 0]
        fresh += len(w) - 1
        for s, c, t in zip(path, w, path[1:]):
            edges.append((s, c, t) if c.islower() else (t, c.lower(), s))
    return edges, fresh


def test_folding_confluent_under_input_order():
    rng = random.Random(41)
    for _ in range(100):
        gens = [random_word(rng, 6) for _ in range(rng.randint(1, 4))]
        reference = build_subgroup_graph(AB, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        # throwing in a product of members must not change the subgroup
        shuffled.append(multiply(rng.choice(gens), rng.choice(gens)))
        assert build_subgroup_graph(AB, shuffled) == reference
        # nor may vertex names, edge order, the base's id or a dead tail
        edges, n = wedge_edges(shuffled)
        edges += [(rng.randrange(n), rng.choice("ab"), n), (n + 1, rng.choice("ab"), n),
                  (n + 1, rng.choice("ab"), n + 2)]
        names = rng.sample(range(1, 2 * (n + 3)), n + 3)
        renamed = [(names[s], c, names[t]) for (s, c, t) in edges]
        rng.shuffle(renamed)
        assert graph_from_edges(AB, renamed, base=names[0]) == reference


def step_map(edges):
    """The signed steps ``(vertex, letter) -> vertex`` of positive ``edges``."""
    step = {}
    for (u, c, v) in edges:
        step[u, c] = v
        step[v, c.upper()] = u
    return step


def test_core_graph_rejects_an_unfolded_edge_set():
    # two a-edges out of vertex 0, then two a-edges into vertex 1: in the step
    # map the later edge overwrites a step, whose mirror is left dangling
    for edges in ([(0, "a", 1), (0, "a", 0), (1, "b", 0)], [(0, "a", 1), (1, "a", 1), (1, "b", 0)]):
        with pytest.raises(AssertionError, match="unfolded"):
            CoreGraph(AB, step_map(edges))
    # a map that lacks one mirror step: (0, b) -> 1 without (1, B) -> 0
    with pytest.raises(AssertionError, match="unfolded"):
        CoreGraph(AB, {(0, "a"): 1, (1, "A"): 0, (0, "b"): 1})
    # a folded map whose b-edge the base does not reach
    with pytest.raises(AssertionError, match="disconnected"):
        CoreGraph(AB, step_map([(0, "a", 0), (1, "b", 2)]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.sampled_from("ab"), st.integers(0, 4)), max_size=10),
    st.integers(0, 4),
)
@example(wedge_edges(["abA", "bab"])[0], 0)
def test_canonical_basis_spans_the_graph(edges, base):
    """The basis read off the breadth-first paths is a ShortLex-sorted free
    basis of the graph's subgroup, and each generator rewrites to its letter;
    a step map numbered otherwise than breadth first is relabelled to the
    same canonical graph."""
    try:
        graph = graph_from_edges(AB, edges, base=base)
    except AssertionError:  # disconnected
        assume(False)
    n = graph.num_vertices
    renumbered = step_map((u and n - u, c, v and n - v) for (u, c, v) in graph.edges)
    for g in (graph, CoreGraph(AB, renumbered)):
        basis = g.canonical_basis()
        assert build_subgroup_graph(AB, basis.generators) == g
        assert list(basis.generators) == sorted(basis.generators, key=shortlex_key)
        assert len(basis.generators) == g.rank()
        for gen, letter in zip(basis.generators, basis.letters):
            assert basis.express(gen) == letter


def test_graph_from_edges_trims_dead_tails():
    # a path hanging off the base contributes no closed paths
    edges = [(0, "a", 1), (1, "a", 0), (0, "b", 2)]
    g = graph_from_edges(AB, edges)
    assert g.num_vertices == 2
    assert g.rank() == 1
    assert g.contains("aa")
    assert not g.contains("b")


def test_express_raises_outside():
    basis = build_subgroup_graph(AB, ["aa", "b"]).canonical_basis()
    with pytest.raises(NotInSubgroup):
        basis.express("a")


def test_express_is_a_certificate():
    """Every accepted word must rewrite to an expression that evaluates back."""
    rng = random.Random(43)
    for _ in range(60):
        gens = [random_word(rng, 5) for _ in range(2)]
        graph = build_subgroup_graph(AB, gens)
        basis = graph.canonical_basis()
        table = dict(zip(basis.letters, basis.generators))
        for w in words_upto(AB, 4):
            if graph.contains(w):
                expr = basis.express(w)
                assert substitute(expr, table) == w


def test_membership_agrees_with_naive_oracle():
    rng = random.Random(47)
    for _ in range(12):
        gens = [random_word(rng, 4) for _ in range(rng.randint(1, 3))]
        graph = build_subgroup_graph(AB, gens)
        reduced = naive_nielsen_reduce(gens)
        for w in words_upto(AB, 4):
            assert graph.contains(w) == naive_member(reduced, w), (gens, w)


def test_products_of_generators_are_members():
    rng = random.Random(53)
    for _ in range(200):
        gens = [random_word(rng, 5) for _ in range(rng.randint(1, 3))]
        graph = build_subgroup_graph(AB, gens)
        pool = [g for base in gens for g in (base, invert(base))]
        product = multiply(*(rng.choice(pool) for _ in range(rng.randint(1, 8))))
        assert graph.contains(product)


def test_express_round_trip_random():
    rng = random.Random(59)
    basis_words = ("ab", "b")
    basis = build_subgroup_graph(AB, basis_words).canonical_basis()
    table = dict(zip(basis.letters, basis.generators))
    for _ in range(300):
        expr = random_word(rng, 8, "xyXY")
        member = substitute(expr, dict(zip("xy", basis_words)))
        again = substitute(basis.express(member), table)
        assert again == member


def test_base_vertex_survives_trim():
    # a lollipop whose handle starts at the base keeps the base
    g = build_subgroup_graph(AB, ["abA"])
    assert g.trace("abA") == 0
    assert g.rank() == 1
    assert not g.contains("b")
