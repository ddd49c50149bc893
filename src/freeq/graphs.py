"""Folded core graphs for finitely generated subgroups of free groups.

A subgroup ``H = <g_1, ..., g_k>`` of the free group on an alphabet is
represented by its core graph: the wedge of loops spelling the generators,
folded until no vertex has two outgoing (or two incoming) edges with the same
label, then trimmed of degree-one vertices away from the basepoint.  Vertices
are relabelled by a breadth-first traversal with a fixed exploration order, so
equal subgroups yield byte-identical graphs and ``==`` decides subgroup
equality.

Edges are stored positively: ``(u, c, v)`` means an edge from ``u`` to ``v``
labelled by the lowercase letter ``c``; reading it backwards spells ``c``'s
inverse.
"""

from __future__ import annotations

from collections import deque
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

    def __init__(self, alphabet: Alphabet, num_vertices: int, edges: frozenset):
        self.alphabet = alphabet
        self.num_vertices = num_vertices
        self.edges = frozenset(edges)
        self._step = _step_map(self.edges)
        if len(self._step) != 2 * len(self.edges):
            raise AssertionError("unfolded edge set passed to CoreGraph")

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

    def spanning_tree(self):
        """Breadth-first spanning tree from the basepoint.

        Returns ``(parent, nontree)`` where ``parent[v]`` is ``(u, letter)``
        with signed ``letter`` read from ``u`` to ``v``, and ``nontree`` lists
        the remaining edges as stored (positively), sorted.
        """
        parent = _bfs_tree(self._step, 0, self.alphabet)
        tree_edges = {(u, c, w) if c.islower() else (w, c.lower(), u) for w, (u, c) in parent.items() if c}
        nontree = sorted(self.edges - tree_edges)
        return parent, nontree

    def path_from_base(self, v: int, parent) -> str:
        letters = []
        while v != 0:
            u, c = parent[v]
            letters.append(c)
            v = u
        return "".join(reversed(letters))

    def canonical_basis(self) -> "SubgroupBasis":
        """Free basis read off the spanning tree, ShortLex-sorted.

        Each non-tree edge ``(s, c, t)`` contributes the generator
        ``path(0->s) . c . path(t->0)``.
        """
        parent, nontree = self.spanning_tree()
        if len(nontree) > len(_BASIS_LETTER_POOL):
            raise WordError(f"subgroup rank {len(nontree)} exceeds supported basis size")
        gens = []
        for (s, c, t) in nontree:
            word = multiply(self.path_from_base(s, parent), c, invert(self.path_from_base(t, parent)))
            gens.append((word, (s, c, t)))
        gens.sort(key=lambda item: shortlex_key(item[0]))
        generators = tuple(word for word, _ in gens)
        letters = tuple(_BASIS_LETTER_POOL[i] for i in range(len(gens)))
        edge_letters = {}
        for letter, (_, (s, c, t)) in zip(letters, gens):
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


def _bfs_tree(step, base: int, alphabet: Alphabet) -> dict[int, tuple[int, str]]:
    """Breadth-first tree from ``base``, trying signed letters in order a, A, b, B, ...

    Maps each vertex reached, in discovery order, to ``(u, letter)``: the
    vertex it was reached from and the signed letter read on the way.
    """
    parent = {base: (base, "")}
    order = deque([base])
    signed = alphabet.signed_letters()
    while order:
        v = order.popleft()
        for c in signed:
            w = step.get((v, c))
            if w is not None and w not in parent:
                parent[w] = (v, c)
                order.append(w)
    return parent


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

    # Trim: repeatedly discard non-basepoint vertices of total degree <= 1
    # (a loop contributes two to the degree of its vertex).
    alive = {base}
    alive.update(u for (u, _, _) in edge_set)
    alive.update(v for (_, _, v) in edge_set)
    while True:
        degree = {v: 0 for v in alive}
        for (u, _, v) in edge_set:
            degree[u] += 1
            degree[v] += 1
        dead = {v for v in alive if v != base and degree[v] <= 1}
        if not dead:
            break
        alive -= dead
        edge_set = {(u, c, v) for (u, c, v) in edge_set if u not in dead and v not in dead}

    # Canonical relabelling: breadth-first from the basepoint.
    index = {v: i for i, v in enumerate(_bfs_tree(_step_map(edge_set), base, alphabet))}
    if len(index) != len(alive):
        raise AssertionError("core graph is disconnected")
    relabelled = frozenset((index[u], c, index[v]) for (u, c, v) in edge_set)
    return CoreGraph(alphabet, len(alive), relabelled)


def build_subgroup_graph(alphabet: Alphabet, generators) -> CoreGraph:
    """Core graph of the subgroup generated by the given coefficient words."""
    edges = []
    num_vertices = 1
    for gen in generators:
        w = reduce_word(alphabet.check_word(gen))
        if not w:
            continue
        prev = 0
        for i, c in enumerate(w):
            nxt = 0 if i == len(w) - 1 else num_vertices + i
            if c.islower():
                edges.append((prev, c, nxt))
            else:
                edges.append((nxt, c.lower(), prev))
            prev = nxt
        num_vertices += max(len(w) - 1, 0)
    return graph_from_edges(alphabet, edges)

