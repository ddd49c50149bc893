"""Folded core graphs for finitely generated subgroups of free groups.

A subgroup ``H = <g_1, ..., g_k>`` of the free group on an alphabet is
represented by its core graph: the wedge of loops spelling the generators,
folded until no vertex has two outgoing (or two incoming) edges with the same
label, then trimmed of degree-one vertices away from the basepoint.  Vertices
are relabelled by a breadth-first traversal with a fixed exploration order, so
equal subgroups yield byte-identical graphs and ``==`` decides subgroup
equality.

A graph is stored as its signed step map ``(u, letter) -> v``: an edge
labelled by the lowercase letter ``c`` from ``u`` to ``v`` is the two steps
``(u, c) -> v`` and ``(v, C) -> u``, ``C`` being ``c``'s inverse.  Positive
triples ``(u, c, v)`` are the input of ``graph_from_edges`` and the derived
``CoreGraph.edges``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import (
    Alphabet,
    WordError,
    invert,
    multiply,
    reduce_word,
    shortlex_key,
)

_BASIS_LETTER_POOL = "xyzuvw"


class NotInSubgroup(WordError):
    """Raised when a word is expressed over a subgroup it does not belong to."""


class CoreGraph:
    """An immutable, canonically labelled folded core graph.

    Vertex ``0`` is the basepoint.  Instances compare and hash by structure,
    so ``build_subgroup_graph(A, gens1) == build_subgroup_graph(A, gens2)``
    holds exactly when the two generating sets span the same subgroup.
    """

    __slots__ = ("alphabet", "num_vertices", "edges", "_step")

    def __init__(self, alphabet: Alphabet, num_vertices: int, step: dict[tuple[int, str], int]):
        """Keep ``step``, the signed step map on vertices ``0 .. num_vertices - 1``,
        and derive the positive ``edges``.  The graph must be folded: every
        step ``(u, c) -> v`` has its mirror ``(v, C) -> u``."""
        if any(step.get((v, c.swapcase())) != u for (u, c), v in step.items()):
            raise AssertionError("unfolded step map passed to CoreGraph")
        self.alphabet = alphabet
        self.num_vertices = num_vertices
        self.edges = frozenset((u, c, v) for (u, c), v in step.items() if c.islower())
        self._step = step

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoreGraph)
            and self.alphabet == other.alphabet
            and self.num_vertices == other.num_vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.letters, self.num_vertices, self.edges))

    def __repr__(self) -> str:
        return f"CoreGraph(vertices={self.num_vertices}, edges={sorted(self.edges)})"

    def follow(self, v: int, letter: str) -> int | None:
        """Step along ``letter`` (signed) from ``v``; None if no such edge."""
        return self._step.get((v, letter))

    def trace(self, w: str) -> int | None:
        """The vertex that reading ``w`` from the basepoint reaches; None if it leaves the graph."""
        v: int | None = 0
        for c in w:
            v = self._step.get((v, c))
            if v is None:
                return None
        return v

    def contains(self, w: str) -> bool:
        """Membership: does the reduced form of ``w`` lie in the subgroup?"""
        return self.trace(reduce_word(self.alphabet.check_word(w))) == 0

    def rank(self) -> int:
        return len(self.edges) - self.num_vertices + 1

    def canonical_basis(self) -> "SubgroupBasis":
        """Free basis read off the breadth-first paths from the basepoint,
        ShortLex-sorted.

        An edge ``(s, c, t)`` is a tree edge when it extends the path to one
        of its ends by its own letter; every other edge contributes the
        generator ``path[s] . c . path[t]^-1``.
        """
        if self.rank() > len(_BASIS_LETTER_POOL):
            raise WordError(f"subgroup rank {self.rank()} exceeds supported basis size")
        path = _bfs_paths(self._step, self.alphabet, 0)
        gens = sorted(
            ((multiply(path[s], c, invert(path[t])), s, c, t)
             for (s, c, t) in self.edges
             if path[t] != path[s] + c and path[s] != path[t] + c.upper()),
            key=lambda item: shortlex_key(item[0]),
        )
        generators = tuple(word for word, *_ in gens)
        letters = tuple(_BASIS_LETTER_POOL[: len(gens)])
        edge_letters = {}
        for letter, (_, s, c, t) in zip(letters, gens):
            edge_letters[s, c] = letter
            edge_letters[t, c.upper()] = letter.upper()
        return SubgroupBasis(self, generators, letters, edge_letters)


@dataclass(frozen=True)
class SubgroupBasis:
    """A free basis of a subgroup, with the bookkeeping needed to rewrite.

    ``generators[i]`` is a word over the coefficient alphabet and is denoted
    by the single letter ``letters[i]`` in rewritten output.
    """

    graph: CoreGraph
    generators: tuple[str, ...]
    letters: tuple[str, ...]
    edge_letters: dict

    def express(self, w: str) -> str:
        """Rewrite a subgroup element as a word over the basis letters."""
        w = reduce_word(self.graph.alphabet.check_word(w))
        graph = self.graph
        v = 0
        out = []
        for c in w:
            nxt = graph.follow(v, c)
            if nxt is None:
                raise NotInSubgroup(f"{w!r} leaves the core graph")
            letter = self.edge_letters.get((v, c))
            if letter is not None:
                out.append(letter)
            v = nxt
        if v != 0:
            raise NotInSubgroup(f"{w!r} is not in the subgroup")
        return reduce_word("".join(out))


def _step_map(edges) -> dict[tuple[int, str], int]:
    """The signed steps ``(vertex, letter) -> vertex`` of positively stored edges."""
    step = {}
    for (u, c, v) in edges:
        step[u, c] = v
        step[v, c.upper()] = u
    return step


def _bfs_paths(step, alphabet: Alphabet, base: int) -> dict[int, str]:
    """The word read from ``base`` to each vertex it reaches, in breadth-first
    discovery order, trying signed letters in order a, A, b, B, ..."""
    path = {base: ""}
    order = [base]
    signed = alphabet.signed_letters()
    for v in order:  # the list grows while it is walked: breadth first
        for c in signed:
            w = step.get((v, c))
            if w is not None and w not in path:
                path[w] = path[v] + c
                order.append(w)
    return path


def _fold_pair(edges) -> tuple[int, int] | None:
    """Two distinct vertices one signed step reaches from a shared vertex, if any."""
    step = {}
    for (u, c, v) in edges:
        for key, end in (((u, c), v), ((v, c.upper()), u)):
            seen = step.setdefault(key, end)
            if seen != end:
                return seen, end
    return None


def graph_from_edges(alphabet: Alphabet, edges, base: int = 0) -> CoreGraph:
    """Fold an arbitrary labelled graph and return its canonical core.

    ``edges`` holds positively oriented triples ``(u, letter, v)``.  Each
    folding pass finds one vertex with two equal-labelled edges out (or in)
    and identifies their other ends, renaming the larger id to the smaller
    in every edge and in ``base``, until no such pair remains; then vertices
    of degree at most one other than the basepoint are trimmed and the rest
    renamed in breadth-first order, so the result does not depend on which
    pair each pass merged.
    """
    edge_set = set(edges)
    while (pair := _fold_pair(edge_set)) is not None:
        keep, drop = min(pair), max(pair)
        edge_set = {(keep if u == drop else u, c, keep if v == drop else v) for (u, c, v) in edge_set}
        if base == drop:
            base = keep

    # Trim: repeatedly discard non-basepoint vertices with at most one step
    # out (a loop gives its vertex two).
    step = _step_map(edge_set)
    while True:
        degree = {}
        for (u, _) in step:
            degree[u] = degree.get(u, 0) + 1
        dead = {v for v, d in degree.items() if d <= 1 and v != base}
        if not dead:
            break
        step = {(u, c): v for (u, c), v in step.items() if u not in dead and v not in dead}

    # Canonical relabelling: breadth-first from the basepoint.
    index = {v: i for i, v in enumerate(_bfs_paths(step, alphabet, base))}
    if len(index) != len({base, *degree}):
        raise AssertionError("core graph is disconnected")
    return CoreGraph(alphabet, len(index), {(index[u], c): index[v] for (u, c), v in step.items()})


def build_subgroup_graph(alphabet: Alphabet, generators) -> CoreGraph:
    """Core graph of the subgroup generated by the given coefficient words."""
    edges, fresh = [], 1
    for gen in generators:
        w = reduce_word(alphabet.check_word(gen))
        path = [0, *range(fresh, fresh + len(w) - 1), 0]  # a loop at 0 spelling w
        fresh += max(len(w) - 1, 0)
        for s, c, t in zip(path, w, path[1:]):
            edges.append((s, c, t) if c.islower() else (t, c.lower(), s))
    return graph_from_edges(alphabet, edges)
