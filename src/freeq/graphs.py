"""Folded core graphs for finitely generated subgroups of free groups.

A subgroup ``H = <g_1, ..., g_k>`` of the free group on an alphabet is
represented by its core graph: the wedge of loops spelling the generators,
folded until no vertex has two outgoing (or two incoming) edges with the same
label, then trimmed of degree-one vertices away from the basepoint.

A graph is stored as its signed step map ``(u, letter) -> v``: an edge
labelled by the lowercase letter ``c`` from ``u`` to ``v`` is the two steps
``(u, c) -> v`` and ``(v, C) -> u``, ``C`` being ``c``'s inverse.  Positive
triples ``(u, c, v)`` are the input of ``graph_from_edges`` and the derived
``CoreGraph.edges``.  Every ``CoreGraph`` is relabelled breadth first with a
fixed exploration order, so equal subgroups yield byte-identical graphs and
``==`` decides subgroup equality.
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

    __slots__ = ("alphabet", "num_vertices", "edges", "_step", "_path")

    def __init__(self, alphabet: Alphabet, step: dict[tuple[int, str], int], base: int = 0):
        """Relabel the folded signed step map ``step`` breadth first from
        ``base`` (letters tried a, A, b, B, ...), which becomes ``0``, and
        keep the renamed map and each vertex's path word.  Raises unless every
        step ``(u, c) -> v`` has its mirror ``(v, C) -> u`` and ``base``
        reaches every vertex."""
        if any(step.get((v, c.swapcase())) != u for (u, c), v in step.items()):
            raise AssertionError("unfolded step map passed to CoreGraph")
        index, order, path = {base: 0}, [base], [""]
        signed = alphabet.signed_letters()
        for i, v in enumerate(order):  # the list grows while it is walked
            for c in signed:
                w = step.get((v, c))
                if w is not None and w not in index:
                    index[w] = len(order)
                    order.append(w)
                    path.append(path[i] + c)
        if any(u not in index for u, _ in step):
            raise AssertionError("core graph is disconnected")
        self.alphabet = alphabet
        self.num_vertices = len(order)
        self._step = {(index[u], c): index[v] for (u, c), v in step.items()}
        self._path = path
        self.edges = frozenset((u, c, v) for (u, c), v in self._step.items() if c.islower())

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
        """Free basis read off the breadth-first paths that the constructor
        kept, ShortLex-sorted.

        An edge ``(s, c, t)`` is a tree edge when it extends the path to one
        of its ends by its own letter; every other edge contributes the
        generator ``path[s] . c . path[t]^-1``.
        """
        if self.rank() > len(_BASIS_LETTER_POOL):
            raise WordError(f"subgroup rank {self.rank()} exceeds supported basis size")
        path = self._path
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


def graph_from_edges(alphabet: Alphabet, edges, base: int = 0) -> CoreGraph:
    """Fold an arbitrary labelled graph and return its canonical core.

    ``edges`` holds positively oriented triples ``(u, letter, v)``, added one
    by one from a worklist as the two steps of each edge in one step map.
    Where a step's slot already leads to another vertex, the two vertices are
    identified: the larger id's steps leave the map and go back on the list
    under the smaller id, which also replaces it in the pending edges and in
    ``base``.  Then vertices of degree at most one other than the basepoint
    are trimmed, and ``CoreGraph`` renames the rest breadth first, so the
    result does not depend on the order of the merges.
    """
    step, work = {}, list(edges)
    signed = alphabet.signed_letters()
    while work:
        u, c, v = work.pop()
        w, x = step.get((u, c), v), step.get((v, c.swapcase()), u)
        if w == v and x == u:
            step[u, c], step[v, c.swapcase()] = v, u
            continue
        keep, drop = sorted((v, w) if w != v else (u, x))
        work.append((u, c, v))
        for d in signed:
            if (t := step.pop((drop, d), None)) is not None:
                step.pop((t, d.swapcase()), None)
                work.append((drop, d, t))
        work = [(keep if s == drop else s, d, keep if t == drop else t) for s, d, t in work]
        if base == drop:
            base = keep

    # Trim: repeatedly discard non-basepoint vertices with at most one step
    # out (a loop gives its vertex two).
    while True:
        degree = {}
        for (u, _) in step:
            degree[u] = degree.get(u, 0) + 1
        dead = {v for v, d in degree.items() if d <= 1 and v != base}
        if not dead:
            break
        step = {(u, c): v for (u, c), v in step.items() if u not in dead and v not in dead}
    return CoreGraph(alphabet, step, base)


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
