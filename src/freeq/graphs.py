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

    __slots__ = ("alphabet", "num_vertices", "edges", "_out", "_in")

    def __init__(self, alphabet: Alphabet, num_vertices: int, edges: frozenset):
        self.alphabet = alphabet
        self.num_vertices = num_vertices
        self.edges = frozenset(edges)
        self._out = {v: {} for v in range(num_vertices)}
        self._in = {v: {} for v in range(num_vertices)}
        for (u, c, v) in self.edges:
            if c in self._out[u] or c in self._in[v]:
                raise AssertionError("unfolded edge set passed to CoreGraph")
            self._out[u][c] = v
            self._in[v][c] = u

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
        if letter.islower():
            return self._out[v].get(letter)
        return self._in[v].get(letter.lower())

    def trace(self, w: str, start: int = 0) -> int | None:
        v: int | None = start
        for c in w:
            v = self.follow(v, c)
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
        the remaining edges as stored (positively), in discovery order.
        """
        parent: dict[int, tuple[int, str]] = {0: (0, "")}
        tree_edges = set()
        order = deque([0])
        while order:
            v = order.popleft()
            for c in self.alphabet.letters:
                w = self._out[v].get(c)
                if w is not None and w not in parent:
                    parent[w] = (v, c)
                    tree_edges.add((v, c, w))
                    order.append(w)
                w = self._in[v].get(c)
                if w is not None and w not in parent:
                    parent[w] = (v, c.upper())
                    tree_edges.add((w, c, v))
                    order.append(w)
        nontree = sorted(e for e in self.edges if e not in tree_edges)
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
        edge_letters = {edge: letters[i] for i, (_, edge) in enumerate(gens)}
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
            edge = (v, c, nxt) if c.islower() else (nxt, c.lower(), v)
            letter = self.edge_letters.get(edge)
            if letter is not None:
                out.append(letter if c.islower() else letter.upper())
            v = nxt
        if v != 0:
            raise NotInSubgroup(f"{w!r} is not in the subgroup")
        return reduce_word("".join(out))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def graph_from_edges(alphabet: Alphabet, num_vertices: int, edges, base: int = 0) -> CoreGraph:
    """Fold an arbitrary labelled graph and return its canonical core.

    ``edges`` holds positively oriented triples ``(u, letter, v)``.  Folding
    identifies targets (or sources) of equal-labelled edges at a shared vertex
    until none remain, then vertices of degree at most one other than the
    basepoint are trimmed and the rest renamed in breadth-first order.
    """
    uf = _UnionFind(num_vertices)
    edge_set = {(u, c, v) for (u, c, v) in edges}
    while True:
        edge_set = {(uf.find(u), c, uf.find(v)) for (u, c, v) in edge_set}
        out: dict[tuple[int, str], int] = {}
        inn: dict[tuple[int, str], int] = {}
        merged = False
        for (u, c, v) in sorted(edge_set):
            if out.setdefault((u, c), v) != v:
                uf.union(v, out[(u, c)])
                merged = True
                break
            if inn.setdefault((v, c), u) != u:
                uf.union(u, inn[(v, c)])
                merged = True
                break
        if not merged:
            break
    base = uf.find(base)

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

    # Canonical relabelling: BFS from the basepoint, letters in alphabet
    # order, outgoing edge before incoming at each letter.
    out_map: dict[int, dict[str, int]] = {v: {} for v in alive}
    in_map: dict[int, dict[str, int]] = {v: {} for v in alive}
    for (u, c, v) in edge_set:
        out_map[u][c] = v
        in_map[v][c] = u
    index = {base: 0}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        for c in alphabet.letters:
            for w in (out_map[v].get(c), in_map[v].get(c)):
                if w is not None and w not in index:
                    index[w] = len(index)
                    queue.append(w)
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
    return graph_from_edges(alphabet, num_vertices, edges)

