"""Shared test helpers: substitution, reduce-based oracles for the word
functions that peel by index, rotation-loop oracles for the word functions
that find rotations in one pass, the Nielsen move formula, greedy-shortening
oracles for the basis check and for the inverse, a graph-free membership
oracle, a set-partition oracle and a refolding oracle for terminal candidates,
a rebuild-every-node oracle for the edge-splitting search, a per-pair orbit
search and two closed forms for the minimal-level lookup, an applying oracle
for Whitehead minimization, an evaluating action on solutions, a widening-ball
oracle for the orbit minimization, an evaluating oracle for the orbit walk,
an orbit-closure oracle and an unseeded-walk oracle for certify's rank-two
coverage, and a full-ball and a short-core oracle for brute force's
single-run route."""

import functools
import itertools
from collections import deque
from math import gcd

from freeq.autf2 import (
    IDENTITY,
    PRODUCT_MOVES,
    TYPE1_AUTOMORPHISMS,
    TYPE2_AUTOMORPHISMS,
    WHITEHEAD_AUTOMORPHISMS,
    AutF2,
    SearchBudgetExceeded,
    inner,
    whitehead_minimize,
)
from freeq.graphs import build_subgroup_graph, graph_from_edges
from freeq.oracle import _rank1_in_ball, _short_core_words
from freeq.solver import HNN_MAX_BASES, Equation, HnnWitness, orbit_walk, terminal_candidates
from freeq.words import (
    VARIABLES,
    Alphabet,
    WordError,
    conjugate,
    conjugating_word,
    cyclic_length,
    cyclic_normal_form,
    evaluate,
    exponent_sum,
    invert,
    kth_root,
    multiply,
    pair_key,
    power,
    primitive_root,
    reduce_word,
    shortlex_key,
    words_upto,
)


def is_reduced(w):
    return all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


def substitute(word, images):
    """Each lowercase letter in ``images`` maps to its image, its uppercase
    partner to the inverse image; other letters are fixed.  Reduced."""
    parts = []
    for c in word:
        base = c.lower()
        if base in images:
            parts.append(images[base] if c.islower() else invert(images[base]))
        else:
            parts.append(c)
    return reduce_word("".join(parts))


# Reduce-based oracles for the word functions that trust reduced input: each
# re-reduces its argument and its result, and peels the conjugator one
# letter pair at a time.


def reducing_power(w, n):
    if n < 0:
        w, n = invert(w), -n
    return reduce_word(w * n)


def reducing_cyclic_reduce(w):
    w = reduce_word(w)
    conj = ""
    while len(w) >= 2 and w[0] == w[-1].swapcase():
        conj = w[-1] + conj
        w = w[1:-1]
    return w, conj


def reducing_primitive_root(w):
    w = reduce_word(w)
    if not w:
        raise WordError("the identity has no primitive root")
    core, conj = reducing_cyclic_reduce(w)
    n = len(core)
    for p in range(1, n + 1):
        if n % p == 0 and core[:p] * (n // p) == core:
            return reduce_word(invert(conj) + core[:p] + conj), n // p
    raise AssertionError("unreachable: every word is a power of its length-1 period")


def reducing_kth_root(w, k):
    if w == "":
        return ""
    if k < 0:
        w, k = invert(w), -k
    root, e = reducing_primitive_root(w)
    if e % k != 0:
        return None
    return reducing_power(root, e // k)


# Rotation-loop oracles: each tries the rotations of a cyclic core one by one
# and ranks letters by a (base letter, is inverse) tuple.


def letter_tuple_shortlex_key(w):
    return (len(w), tuple((c.lower(), c.isupper()) for c in w))


def rotating_cyclic_normal_form(w):
    core = reducing_cyclic_reduce(w)[0]
    if not core:
        return ""
    rotations = (core[i:] + core[:i] for i in range(len(core)))
    return min(rotations, key=letter_tuple_shortlex_key)


def rotating_conjugating_word(v, w):
    core_v, cv = reducing_cyclic_reduce(v)
    core_w, cw = reducing_cyclic_reduce(w)
    if len(core_v) != len(core_w):
        return None
    if not core_v:
        return ""
    for i in range(len(core_v)):
        if core_v[i:] + core_v[:i] == core_w:
            return multiply(invert(cv), core_v[:i], cw)
    return None


# The elementary Nielsen moves by their formula, in the order of
# ``autf2.PRODUCT_MOVES + autf2.INVERSION_MOVES``.  A move ``(side, e1, e2,
# e3)`` replaces component ``side`` of a pair: writing the kept component as
# ``b`` and the replaced one as ``a``, the replacement is ``(a^e1 b^e2)^e3``.
# The sixteen product moves have ``e2 != 0``; the two inversions ``e2 == 0``.


NIELSEN_MOVES = tuple(
    (side, e1, e2, e3) for side in (0, 1) for e1 in (1, -1) for e2 in (1, -1) for e3 in (1, -1)
) + ((0, -1, 0, 1), (1, -1, 0, 1))


def nielsen_move(move, pair):
    side, e1, e2, e3 = move
    a, b = pair if side == 0 else (pair[1], pair[0])
    new = reducing_power(multiply(reducing_power(a, e1), reducing_power(b, e2)), e3)
    return (new, pair[1]) if side == 0 else (pair[0], new)


# The greedy basis check: shorten the pair by product moves, taking the
# smallest resulting pair (total length, then ShortLex, then move index),
# until no move shortens it; the pair was a basis exactly when it stops at a
# signed permutation of (x, y).


def greedy_is_basis_pair(w1, w2):
    if abs(exponent_sum(w1, "x") * exponent_sum(w2, "y")
           - exponent_sum(w1, "y") * exponent_sum(w2, "x")) != 1:
        return False
    cur = (reduce_word(w1), reduce_word(w2))
    while True:
        total = len(cur[0]) + len(cur[1])
        best = None
        for idx, move in enumerate(NIELSEN_MOVES[:16]):
            new = nielsen_move(move, cur)
            if len(new[0]) + len(new[1]) < total:
                cand = (pair_key(new), idx)
                if best is None or cand < best[0]:
                    best = (cand, new)
        if best is None:
            return sorted(c.lower() for c in cur) == ["x", "y"]
        cur = best[1]


# The greedy inverse: shorten the images by the first product move that
# shortens the pair, down to a signed permutation P of (x, y).  Then
# ``aut . M1 ... Mk == P``, and the inverse is ``M1 ... Mk . P^-1``, P^-1 read
# off letter by letter.  Only the images of the moves are read, so the
# inverse does not rest on the inverses the library builds with them.  The
# library never searches for an inverse: every automorphism carries its own.


def _greedy_inverse(pair):
    inverse = IDENTITY
    while (total := len(pair[0]) + len(pair[1])) > 2:
        for move, formula in zip(PRODUCT_MOVES, NIELSEN_MOVES):
            new = nielsen_move(formula, pair)
            if len(new[0]) + len(new[1]) < total:
                pair, inverse = new, inverse.compose(move)
                break
        else:
            raise AssertionError(f"no product move shortens the pair {pair!r}")
    letters = {img.lower(): var if img.islower() else var.upper() for var, img in zip("xy", pair)}
    return inverse.compose(AutF2(letters["x"], letters["y"], *pair))


def nielsen_inverse(aut):
    return _greedy_inverse((aut.image_x, aut.image_y))


def automorphism(image_x, image_y):
    """The automorphism with the given images, a free basis, built by the
    validating constructor with the greedy inverse's images."""
    inverse = _greedy_inverse((reduce_word(image_x), reduce_word(image_y)))
    return AutF2(image_x, image_y, inverse.image_x, inverse.image_y)


def recursive_words_of_length(alphabet, n):
    if n == 0:
        yield ""
        return
    signed = alphabet.signed_letters()

    def extend(prefix):
        if len(prefix) == n:
            yield "".join(prefix)
            return
        banned = prefix[-1].swapcase() if prefix else None
        for c in signed:
            if c != banned:
                prefix.append(c)
                yield from extend(prefix)
                prefix.pop()

    yield from extend([])


# A naive membership oracle that shares no code with the folding machinery:
# Nielsen-reduce the generating tuple by repeated pairwise shortening, then
# decide membership by a depth-first search over length-non-increasing
# strips (with a little slack).


def naive_nielsen_reduce(gens):
    gens = [reduce_word(g) for g in gens if reduce_word(g)]
    changed = True
    while changed:
        changed = False
        gens = [g for g in gens if g]
        for i, j in itertools.permutations(range(len(gens)), 2):
            a, b = gens[i], gens[j]
            for cand in (multiply(a, b), multiply(a, invert(b)),
                         multiply(b, a), multiply(invert(b), a)):
                if len(cand) < len(a):
                    gens[i] = cand
                    changed = True
                    break
            if changed:
                break
    return sorted(set(g for g in gens if g))


def naive_member(reduced, w):
    """Decide w in <reduced> for an already Nielsen-reduced tuple."""
    w = reduce_word(w)
    if not w:
        return True
    if not reduced:
        return False
    # for a Nielsen-reduced set, a member's strip sequence never grows
    cap = len(w) + 4
    steps = [g for r in reduced for g in (r, invert(r))]
    seen = set()
    stack = [w]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for s in steps:
            nxt = multiply(invert(s), cur)
            if not nxt:
                return True
            if len(nxt) <= cap and nxt not in seen:
                stack.append(nxt)
    return False


# The terminal-candidate oracle: fold every set partition of the u-cycle's
# vertices (Bell(|u|) of them) and keep the distinct rank-two quotients.


def _set_partitions(n):
    """Restricted-growth strings: block index per element, lexicographic."""
    assignment = [0] * n
    while True:
        yield tuple(assignment)
        # advance to the next restricted-growth string
        i = n - 1
        while i > 0:
            bound = max(assignment[:i]) + 1
            if assignment[i] < bound:
                assignment[i] += 1
                for j in range(i + 1, n):
                    assignment[j] = 0
                break
            i -= 1
        else:
            return


def partition_terminal_candidates(eq):
    u = eq.rhs
    m = len(u)
    cycle_edges = []
    for i, c in enumerate(u):
        src, dst = i, (i + 1) % m
        cycle_edges.append((src, c, dst) if c.islower() else (dst, c.lower(), src))
    seen = set()
    results = []
    for blocks in _set_partitions(m):
        mapped = [(blocks[s], c, blocks[d]) for (s, c, d) in cycle_edges]
        graph = graph_from_edges(eq.alphabet, mapped, base=blocks[0])
        if graph in seen:
            continue
        seen.add(graph)
        if graph.rank() != 2:
            continue
        basis = graph.canonical_basis()
        results.append((basis.generators, basis.express(u)))
    results.sort(key=lambda item: pair_key(item[0]))
    return tuple(results)


# The refolding oracle: the folding walk of ``solver.terminal_candidates``,
# but each terminal edge map is refolded, trimmed and relabelled by
# ``graph_from_edges`` before its basis is read, where the walk uses it as
# built.


def refolding_terminal_candidates(eq):
    u = eq.rhs
    m = len(u)
    results = []
    stack = [(0, 0, 1, 0, {})]
    while stack:
        i, v, n, rank, step = stack.pop()
        while i < m and (v, u[i]) in step:
            v = step[v, u[i]]
            i += 1
        if i == m:
            if v == 0 and rank == 2:
                edges = [(s, c, t) for (s, c), t in step.items() if c.islower()]
                basis = graph_from_edges(eq.alphabet, edges).canonical_basis()
                results.append((basis.generators, basis.express(u)))
            continue
        if rank == 2:
            continue
        c, back = u[i], u[i].swapcase()
        for t in (0,) if i == m - 1 else range(n + 1):
            if (t, back) in step:
                continue
            grown = dict(step)
            grown[v, c] = t
            grown[t, back] = v
            stack.append((i + 1, t, n + (t == n), rank + (t < n), grown))
    results.sort(key=lambda item: pair_key(item[0]))
    return tuple(results)


# The edge-splitting oracle: the breadth-first order over bases of
# ``solver.detect_hnn_splitting``, but each basis is built by the validating
# constructor with its greedy inverse and ``w`` is rewritten through that
# inverse at every basis, where the search tests only the abelianization.
# The order depends only on the length bound, so the bases are listed once
# per bound.


@functools.lru_cache(maxsize=None)
def pairs_in_search_order(bound):
    start = ("x", "y")
    order = [start]
    visited = {start}
    for pair in order:  # the list grows while it is walked: breadth first
        for move in NIELSEN_MOVES:
            new = nielsen_move(move, pair)
            if len(new[0]) + len(new[1]) <= bound and new not in visited:
                visited.add(new)
                order.append(new)
    return tuple(order)


@functools.lru_cache(maxsize=None)
def _bases_in_search_order(bound):
    return tuple(automorphism(p, t) for p, t in pairs_in_search_order(bound))


def rebuilding_hnn_splitting(w, hnn_max_bases=HNN_MAX_BASES):
    w = reduce_word(w)
    bases = _bases_in_search_order(max(len(w), 2))
    for tested, basis in enumerate(bases, 1):
        if tested > hnn_max_bases:
            raise SearchBudgetExceeded(
                f"edge-splitting search tested {hnn_max_bases} bases without a verdict"
            )
        rewritten = basis.inverse.apply(w)
        if exponent_sum(rewritten, "y") == 0:
            p, t = basis.image_x, basis.image_y
            q = conjugate(p, t)
            sub = build_subgroup_graph(VARIABLES, [p, q])
            if sub.rank() == 2 and sub.contains(w):
                return HnnWitness(p=p, q=q, t=t, basis_aut=basis)
    return None


# The orbit-search oracle: ``autf2.MinimalLevel.carry`` as a search of its
# own for every pair of words, which minimizes both words and walks the
# level breadth first from the source until the target's form turns up.


def orbit_automorphism(source: str, target: str, max_visited: int = 10**6) -> AutF2 | None:
    """Search for an automorphism with ``aut.apply(source) == target``.

    Tri-state outcome: an exact automorphism, None when the words are
    provably in different orbits, or :class:`SearchBudgetExceeded` when the
    level search visits more than ``max_visited`` cyclic forms.

    Both words are Whitehead-minimized; if the minimal cyclic lengths agree,
    a breadth-first search over cyclic normal forms at that level (all twenty
    Whitehead automorphisms, images staying on the level) connects them
    exactly when some automorphism does.  A conjugation fix-up then upgrades
    the cyclic match to an exact one.
    """
    source = reduce_word(source)
    target = reduce_word(target)
    if source == "" or target == "":
        return IDENTITY if source == target else None
    sx, sy = abs(exponent_sum(source, "x")), abs(exponent_sum(source, "y"))
    tx, ty = abs(exponent_sum(target, "x")), abs(exponent_sum(target, "y"))
    if gcd(sx, sy) != gcd(tx, ty):
        return None
    m1, a1 = whitehead_minimize(source)
    m2, a2 = whitehead_minimize(target)
    level = cyclic_length(m1)
    if level != cyclic_length(m2):
        return None

    start = cyclic_normal_form(m1)
    goal = cyclic_normal_form(m2)
    reached: dict[str, tuple[AutF2, str]] = {start: (IDENTITY, m1)}
    queue = deque([start])
    found: AutF2 | None = None
    if start == goal:
        found = IDENTITY
    while queue and found is None:
        node = queue.popleft()
        aut, word = reached[node]
        for t in WHITEHEAD_AUTOMORPHISMS:
            img = t.apply(word)
            if cyclic_length(img) != level:
                continue
            form = cyclic_normal_form(img)
            if form in reached:
                continue
            if len(reached) >= max_visited:
                raise SearchBudgetExceeded(
                    f"orbit search visited {max_visited} cyclic forms without a verdict"
                )
            reached[form] = (t.compose(aut), img)
            if form == goal:
                found = reached[form][0]
                queue.clear()
                break
            queue.append(form)
    if found is None:
        return None

    # found(m1) is conjugate to m2; compose with the conjugation that matches
    # them exactly, then undo the two minimizing automorphisms.
    h = conjugating_word(found.apply(m1), m2)
    if h is None:
        raise AssertionError("cyclic forms matched but words are not conjugate")
    exact = nielsen_inverse(a2).compose(inner(h).compose(found.compose(a1)))
    if exact.apply(source) != target:
        raise AssertionError("orbit search produced a wrong automorphism")
    return exact


# The applying minimizer: ``autf2.whitehead_minimize`` with every type-2 move
# applied at every step, where the minimizer reads each move's change in
# length off its count of letter pairs and applies only the best moves.


def applying_whitehead_minimize(w: str) -> tuple[str, AutF2]:
    cur = reduce_word(w)
    total = IDENTITY
    while True:
        best = None
        for idx, t in enumerate(TYPE2_AUTOMORPHISMS):
            img = t.apply(cur)
            if cyclic_length(img) < cyclic_length(cur):
                cand = (cyclic_length(img), shortlex_key(cyclic_normal_form(img)), idx)
                if best is None or cand < best[0]:
                    best = (cand, t, img)
        if best is None:
            break
        _, t, cur = best
        total = t.compose(total)
    form = cyclic_normal_form(cur)
    if form != cur:
        total = inner(conjugating_word(cur, form)).compose(total)
    return form, total


# Closed-form oracles for the lookups of ``x`` and ``XYxy`` on a minimal level,
# with no walk.


def primitive_closed_form(w: str) -> AutF2 | None:
    """The automorphism ``MinimalLevel(w).carry("x")`` finds: by Whitehead,
    ``w`` is primitive exactly when its minimization ends at one letter ``m``,
    and the first signed permutation taking ``m`` to ``x`` finishes it."""
    m, aut = whitehead_minimize(w)
    if len(m) != 1:
        return None
    return next(p for p in TYPE1_AUTOMORPHISMS if p.apply(m) == "x").compose(aut)


# The cyclic words of [x, y] and [y, x].
BASIS_COMMUTATORS = frozenset({cyclic_normal_form("XYxy"), cyclic_normal_form("YXyx")})


def commutator_normalizer(w: str) -> AutF2 | None:
    """The automorphism ``MinimalLevel(w).carry("XYxy")`` finds: by Nielsen,
    the orbit of ``[x, y]`` is the conjugates of ``[x, y]^±1``, and the first
    signed permutation matching the minimized words cyclically, fixed up by a
    conjugation, joins the two Whitehead minimizers."""
    if cyclic_normal_form(w) not in BASIS_COMMUTATORS:
        return None
    m1, a1 = whitehead_minimize(w)
    m2, a2 = whitehead_minimize("XYxy")
    p = next(p for p in TYPE1_AUTOMORPHISMS if cyclic_normal_form(p.apply(m1)) == m2)
    h = conjugating_word(p.apply(m1), m2)
    return nielsen_inverse(a2).compose(inner(h).compose(p.compose(a1)))


# The evaluating action: precompose a solution with an automorphism by
# evaluating its images, where ``autf2._act`` builds them by junction-only
# products.


def apply_to_solution(aut, pair):
    """Precompose a solution with an automorphism fixing the left side."""
    return (evaluate(aut.image_x, pair[0], pair[1]), evaluate(aut.image_y, pair[0], pair[1]))


# The orbit-minimization oracle: each unclaimed seed is walked in the ball of
# total length max(2|u| + 4, |seed|), and the walk is restarted in a ball of
# twice the length while it reaches the boundary and its best pair changes,
# at most three times.


def _widening_ball_walk(seed, actions, ball):
    best = seed
    visited = {seed}
    queue = [seed]
    hit = False
    for pair in queue:  # the list grows while it is walked: breadth first
        for aut in actions:
            new = apply_to_solution(aut, pair)
            if len(new[0]) + len(new[1]) > ball:
                hit = True
            elif new not in visited:
                visited.add(new)
                queue.append(new)
                best = min(best, new, key=pair_key)
    return best, visited, hit


def widening_minimal_solutions(eq, gens):
    seeds = set()
    sums_gcd = gcd(exponent_sum(eq.lhs, "x"), exponent_sum(eq.lhs, "y"))
    for pair, rewritten in terminal_candidates(eq, sums_gcd):
        match = orbit_automorphism(eq.lhs, rewritten)
        if match is not None:
            seeds.add((evaluate(match.image_x, *pair), evaluate(match.image_y, *pair)))
    actions = [g.aut for g in gens] + [nielsen_inverse(g.aut) for g in gens]
    reps = set()
    claimed = set()
    for seed in sorted(seeds, key=pair_key):
        if seed in claimed:
            continue
        ball = max(2 * len(eq.rhs) + 4, len(seed[0]) + len(seed[1]))
        previous = None
        for widenings in range(4):
            best, visited, hit = _widening_ball_walk(seed, actions, ball)
            if not hit or best == previous:
                break
            if widenings == 3:
                raise SearchBudgetExceeded(f"orbit minimization kept improving at ball {ball}")
            previous = best
            ball *= 2
        claimed |= visited
        reps.add(best)
    return tuple(sorted(reps, key=pair_key))


# The orbit-walk oracle: ``solver.orbit_walk`` as it was before it built
# images by junction-only products, applying every generator and inverse to
# every pair through ``apply_to_solution``, that is ``evaluate`` on the images.


def evaluating_orbit_walk(seed, gens, rhs):
    ball = max(2 * len(rhs) + 4, len(seed[0]) + len(seed[1]))
    actions = [g.aut for g in gens] + [g.aut.inverse for g in gens]
    queue = [seed]
    visited = {seed}
    for pair in queue:  # the list grows while it is walked: breadth first
        for aut in actions:
            new = apply_to_solution(aut, pair)
            if new in visited or len(new[0]) + len(new[1]) > ball:
                continue
            visited.add(new)
            queue.append(new)
    return visited


# The coverage oracle: the orbit of the minimal solutions under the canonical
# generators, kept while both coordinates fit in a per-coordinate ball; at
# radius L + 2|u| it is the rank-two coverage certify used before it walked
# from each brute solution.


def delta_orbit_closure(seeds, generators, max_len):
    def fits(pair):
        return len(pair[0]) <= max_len and len(pair[1]) <= max_len

    actions = [g.aut for g in generators] + [g.aut.inverse for g in generators]
    queue = [s for s in seeds if fits(s)]
    visited = set(queue)
    for pair in queue:  # the list grows while it is walked: breadth first
        for aut in actions:
            new = apply_to_solution(aut, pair)
            if new not in visited and fits(new):
                visited.add(new)
                queue.append(new)
    return frozenset(visited)


def closure_uncovered(brute, desc):
    """The brute solutions of a jsj description that neither the rank-one
    family nor the orbit closure at radius L + 2|u| covers."""
    covered = _rank1_in_ball(desc.rank1, brute.max_len)
    covered |= delta_orbit_closure(desc.minimal, desc.generators,
                                   brute.max_len + 2 * len(desc.reduced.rhs))
    return tuple(p for p in brute.pairs() if p not in covered)


def unseeded_walk_uncovered(brute, desc):
    """The brute solutions of a jsj description that neither the rank-one
    family nor the orbit walk from the solution itself to a minimal solution
    covers: every rank-two brute solution is walked, none is covered up front."""
    covered = _rank1_in_ball(desc.rank1, brute.max_len)
    minimal = set(desc.minimal)
    for g1, g2, rank in brute.solutions:
        if rank == 2 and not minimal.isdisjoint(
                orbit_walk((g1, g2), desc.generators, desc.reduced.rhs)):
            covered.add((g1, g2))
    return tuple(p for p in brute.pairs() if p not in covered)


PROBE_PLANTS = (("a", "b"), ("ab", "b"), ("a", "ba"), ("aB", "b"), ("ab", "ba"))


def probe_equations(max_w):
    """The planted probe: every cyclic normal form w with |w| <= max_w in
    both variables, with u = w(g1, g2) for each planted pair (g1, g2)."""
    lhs = [w for w in words_upto(VARIABLES, max_w)
           if "x" in w.lower() and "y" in w.lower() and cyclic_normal_form(w) == w]
    ab = Alphabet.from_string("ab")
    return [Equation(ab, w, evaluate(w, *plant)) for w in lhs for plant in PROBE_PLANTS]


@functools.cache
def _flanks(alphabet, a, b, u, max_len):
    """``g^-a u g^-b`` for every ball word g, in ball order, as ``multiply``
    reduces it; left sides that differ only in k share these."""
    return [multiply(power(g, -a), u, power(g, -b)) for g in words_upto(alphabet, max_len)]


@functools.cache
def full_ball_single_run(alphabet, a, k, b, u, max_len):
    """The pairs (g, z) of the ball with g^a z^k g^b = u, by testing every
    ball word g: z is the k-th root of g^-a u g^-b.  The oracle for brute
    force's single-run route, which tests only the powers of u's root and
    either short-core values or the pairs it reads off u.  Left sides that
    differ only in which variable is z share it."""
    out = set()
    for g, flank in zip(words_upto(alphabet, max_len), _flanks(alphabet, a, b, u, max_len)):
        root = kth_root(flank, k)
        if root is not None and len(root) <= max_len:
            out.add((g, root))
    return frozenset(out)


@functools.cache
def short_core_single_run(alphabet, a, k, b, u, max_len):
    """The pairs (g, z) of the ball with g^a z^k g^b = u, for |a+b| >= 3,
    |k| >= 2 and u != 1 not a proper power, by testing every ball word g of
    cyclic length at most B = (‖u‖ - |k| - 2) // (|a+b| - 2) and every power
    of u in the ball: z is the k-th root of g^-a u g^-b.  The cancellation
    bound leaves no other g.  The oracle for brute force's two-sided read,
    which lists no value of g; it reaches radii where the whole ball is too
    large to test."""
    bound = (cyclic_length(u) - abs(k) - 2) // (abs(a + b) - 2)
    assert u and primitive_root(u)[1] == 1
    powers = {power(u, i) for i in range(-max_len, max_len + 1)}
    out = set()
    for g in set(_short_core_words(alphabet, min(bound, max_len), max_len)) | powers:
        root = kth_root(multiply(power(g, -a), u, power(g, -b)), k)
        if len(g) <= max_len and root is not None and len(root) <= max_len:
            out.add((g, root))
    return frozenset(out)
