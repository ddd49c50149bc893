"""The three workloads: their seeded inputs, the calls they time, the checks.

Each workload builds a list of ``Op`` during set-up.  An op's ``call`` is the
one timed call into freeq; its ``check`` turns the result (or the exception
the call raised) into ``OK``, ``UNRESOLVED`` or ``WRONG`` outside the timed
region.  Calls look functions up on the module objects at call time, so a
tracer installed after set-up sees them.

Every op has a ``text``, its exact input (ops repeated within a pass share
it, and statistics are taken per distinct text), and a ``group``: the case
family (closed_form, qh, hnn, rigid, plus large_u and planted in
``describe``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import measure

OK = "ok"
UNRESOLVED = "unresolved"
WRONG = "wrong"

FAMILIES = ("closed_form", "qh", "hnn", "rigid")


@dataclass
class Op:
    group: str
    text: str  # the exact input: identifies it in statistics and the digest
    call: Callable[[], Any]
    check: Callable[[Any], tuple[str, str]]  # (outcome, stage or reason)


@dataclass
class Setup:
    ops: list[Op]
    extra: Callable[[dict], dict] = field(default=lambda times: {})

    def distinct(self) -> list[Op]:
        """The first op of every distinct input, in pass order."""
        first: dict[str, Op] = {}
        for op in self.ops:
            first.setdefault(op.text, op)
        return list(first.values())


def digest(ops) -> str:
    """Short hash of the op inputs, so two runs can show they ran the same ones."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.text.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _parse_word(text: str) -> str:
    return "" if text == "1" else text


def _parse_pair(text: str) -> tuple[str, str]:
    g1, g2 = text.split()
    return _parse_word(g1), _parse_word(g2)


# ---------------------------------------------------------------------------
# describe: ``freeq solve --format structured`` in process

# The fields of ``freeq/1`` solve output each anchor must reproduce exactly
# (any other line, such as ``stats.*``, is ignored).
CHECKED_FIELDS = ("status", "kind", "formula", "case")
CHECKED_PREFIXES = ("generator.", "minimal.", "lattice.", "rank1", "parametric.")

# (w, u, family, expected fields).
ANCHORS = (
    ("xy", "ab", "closed_form", {
        "status": "ok", "kind": "parametric", "formula": "parametric-substitution",
        "parametric.x": "xY", "parametric.y": "y"}),
    ("xxyy", "aaaa", "closed_form", {
        "status": "ok", "kind": "rank1-only", "formula": "power-lattice",
        "rank1.root": "a", "rank1.base": "0 2", "rank1.direction": "1 -1"}),
    ("xxyy", "1", "closed_form", {
        "status": "ok", "kind": "trivial-rhs", "formula": "kernel-lattice",
        "lattice.0": "1 -1"}),
    ("(xy)^2", "ab", "closed_form", {
        "status": "ok", "kind": "empty", "formula": "empty"}),
    ("[x,y]", "[a,b]", "qh", {
        "status": "ok", "kind": "jsj", "formula": "automorphism-orbit", "case": "qh",
        "rank1": "empty",
        "generator.0": "c conjugation-by-lhs YXyxYxy YXyxyXYxy",
        "generator.1": "d boundary-twist-x yx y",
        "generator.2": "e boundary-twist-y x xy",
        "generator.3": "p symmetry-0 YXy YXYxy",
        "generator.4": "q symmetry-1 YXyxy YXyXYxy",
        "generator.5": "r symmetry-2 Y Yxy",
        "minimal.0": "a b"}),
    ("xxyy", "aabb", "hnn", {
        "status": "ok", "kind": "jsj", "formula": "hnn-twist", "case": "hnn",
        "rank1": "empty",
        "generator.0": "c conjugation-by-lhs YYxyy YYXXyxxyy",
        "generator.1": "t edge-twist xYX xyy",
        "generator.2": "p symmetry-0 y YYxyy",
        "minimal.0": "a b"}),
    ("xYxy", "aBab", "hnn", {
        "status": "ok", "kind": "jsj", "formula": "hnn-twist", "case": "hnn",
        "rank1": "empty",
        "generator.0": "c conjugation-by-lhs YXyxYxy YXyXyxYxy",
        "generator.1": "t edge-twist x xy",
        "generator.2": "p symmetry-0 Yxy YXYxy",
        "minimal.0": "a b"}),
    ("xxxyyy", "aaabbb", "rigid", {
        "status": "ok", "kind": "jsj", "formula": "u-conjugates", "case": "rigid",
        "rank1": "empty",
        "generator.0": "c conjugation-by-lhs YYYxyyy YYYXXXyxxxyyy",
        "generator.1": "p symmetry-0 y YYYxyyy",
        "minimal.0": "a b"}),
)

# The |u| = 10-12 equations whose cycle-partition enumeration trips its
# budget at the seed.
LARGE_U = (("[x,y]", "[aab,ba]"), ("xxyy", "(aab)^2(bab)^2"), ("[x,y]", "[aab,bba]"))

# Planted equations u = w(g1, g2): w is drawn from one orbit class of the
# non-primitive length-4 words (images of a representative under signed
# permutations of x, y, inversion and rotation), g1 and g2 from the words of
# length at most 2.  Each slot fixes the class, |u| and the shape of u, so
# every seed draws different equations that sweep |u| from 0 to 8 in the
# same way.  There is one equation per slot.
CLASS_REPRESENTATIVES = {
    "squares": "xxyy",
    "twisted": "xYxy",
    "commutator": "XYxy",
    "power": "xyxy",
}
PLANTED_SLOTS = (
    ("commutator", 0, "trivial"),
    ("power", 2, "power"),
    ("squares", 2, "power"),
    ("power", 6, "power"),
    ("squares", 4, "free"),
    ("squares", 6, "free"),
    ("twisted", 4, "free"),
    ("twisted", 6, "free"),
    ("squares", 8, "free"),
    ("twisted", 8, "free"),
    ("commutator", 4, "free"),
    ("commutator", 6, "free"),
)

# A pass is DESCRIBE_REPEATS rounds; each round runs every anchor and
# planted equation once, in its own seeded order, so an input's runs are
# spread evenly over the pass.  Repetitions only buy samples for an input's
# median: every metric weighs each distinct input once (see measure.py).
# The large-u
# equations run once per pass, in the first, middle and last rounds; each
# walks the whole 100 000-call partition budget, about 4.5 s.
DESCRIBE_REPEATS = 7

# Stage of a budget trip, from the ``note`` of an unresolved description.
STAGE_BY_NOTE = (
    ("cycle partitions", "partitions"),
    ("orbit search", "orbit_search"),
    ("edge-splitting", "edge_splitting"),
    ("orbit minimization", "orbit_minimisation"),
)
DESCRIBE_STAGES = tuple(stage for _, stage in STAGE_BY_NOTE)


def stage_of(note: str) -> str:
    for marker, stage in STAGE_BY_NOTE:
        if marker in note:
            return stage
    return "other"


def word_class(words, representative: str) -> list[str]:
    """The length-preserving images of a variable word under signed
    permutations of x and y, inversion and cyclic rotation, sorted."""
    out = set()
    for ix in ("x", "X", "y", "Y"):
        for iy in ("x", "X", "y", "Y"):
            if ix.lower() == iy.lower():
                continue
            image = words.evaluate(representative, ix, iy)
            for v in (image, words.invert(image)):
                for i in range(len(v)):
                    r = v[i:] + v[:i]
                    if len(r) == len(representative) and words.reduce_word(r) == r:
                        out.add(r)
    return sorted(out)


def planted_equations(words, seed: int) -> list[tuple[str, str, str, tuple[str, str]]]:
    """``(slot name, w, u, (g1, g2))`` for every planted slot: u = w(g1, g2)."""
    rng = random.Random(f"planted:{seed}")
    small = list(words.words_upto(words.Alphabet(("a", "b")), 2))
    classes = {name: word_class(words, rep) for name, rep in CLASS_REPRESENTATIVES.items()}
    out = []
    for cls, length, shape in PLANTED_SLOTS:
        for _ in range(100_000):
            w, g1, g2 = rng.choice(classes[cls]), rng.choice(small), rng.choice(small)
            u = words.evaluate(w, g1, g2)
            if len(u) != length:
                continue
            if shape == "trivial" or (u and (words.primitive_root(u)[1] > 1) == (shape == "power")):
                break
        else:
            raise RuntimeError(f"no planted equation for slot {cls}/{length}/{shape}")
        out.append((f"{cls}{length}", w, u, (g1, g2)))
    return out


def _solve_fields(text: str) -> dict[str, str]:
    lines = text.splitlines()
    if not lines or lines[0] != "freeq/1":
        raise ValueError("solve output does not start with freeq/1")
    fields = {}
    for line in lines[1:]:
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"malformed structured line {line!r}")
        fields[key] = value
    return fields


def _power(words, root: str, n: int) -> str:
    return words.reduce_word((root if n >= 0 else words.invert(root)) * abs(n))


def _ints(value: str) -> tuple[int, int]:
    n1, n2 = value.split()
    return int(n1), int(n2)


def family_members(words, fields: dict[str, str], rhs: str) -> list[tuple[str, tuple[str, str]]]:
    """``(field, pair)``: members of the closed-form families a description
    prints, which must all be solutions of its (reduced) equation.

    A ``lattice.i`` generator gives (r^n1, r^n2) for any root r; the rank-one
    family gives root^(base + n direction) for n = 0, 1; the parametric
    family gives (X(u, z), Y(u, z)) for any word z.
    """
    out = []
    for key, value in fields.items():
        if key.startswith("lattice."):
            n1, n2 = _ints(value)
            out.append((key, (_power(words, "ab", n1), _power(words, "ab", n2))))
    if "rank1.root" in fields:
        root = _parse_word(fields["rank1.root"])
        (b1, b2), (d1, d2) = _ints(fields["rank1.base"]), _ints(fields["rank1.direction"])
        for n in (0, 1):
            pair = (_power(words, root, b1 + n * d1), _power(words, root, b2 + n * d2))
            out.append((f"rank1 n={n}", pair))
    if "parametric.x" in fields:
        images = _parse_word(fields["parametric.x"]), _parse_word(fields["parametric.y"])
        for z in ("", "bA"):
            pair = tuple(words.evaluate(image, rhs, z) for image in images)
            out.append((f"parametric z={z or '1'}", pair))
    return out


def _commute(words, g1: str, g2: str) -> bool:
    return words.reduce_word(g1 + g2) == words.reduce_word(g2 + g1)


def _describe_check(mods, expected=None, planted=None):
    """Check one ``solve`` output.

    ``expected`` holds an anchor's fields.  ``planted`` is the pair (g1, g2)
    a planted equation was built from: such an equation is never empty, and
    a rank-one-only or trivial-rhs answer must not exclude it, that is, the
    planted pair must then commute.
    """
    words, solver = mods["words"], mods["solver"]

    def check(result):
        if isinstance(result, BaseException):
            return WRONG, f"raised {type(result).__name__}: {result}"
        code, text = result
        try:
            fields = _solve_fields(text)
        except ValueError as exc:
            return WRONG, str(exc)
        if expected is not None:
            got = {k: v for k, v in fields.items()
                   if k in CHECKED_FIELDS or k.startswith(CHECKED_PREFIXES)}
            if got != expected:
                return WRONG, f"fields differ from the anchor: {got}"
        if fields["status"] != "ok":
            if code != 2:
                return WRONG, f"unresolved description exited {code}"
            return UNRESOLVED, stage_of(fields.get("note", ""))
        if code != 0:
            return WRONG, f"resolved description exited {code}"
        if planted is not None:
            if fields["kind"] == "empty":
                return WRONG, f"empty, but {planted} is a solution"
            if fields["kind"] in ("rank1-only", "trivial-rhs") and not _commute(words, *planted):
                return WRONG, f"{fields['kind']}, but {planted} is a rank-two solution"
        alphabet = words.Alphabet.from_string(fields["alphabet"])
        lhs = _parse_word(fields.get("reduced.lhs", fields["lhs"]))
        rhs = _parse_word(fields.get("reduced.rhs", fields["rhs"]))
        eq = solver.Equation(alphabet, lhs, rhs)
        pairs = [(k, _parse_pair(v)) for k, v in fields.items() if k.startswith("minimal.")]
        for key, pair in pairs + family_members(words, fields, rhs):
            if not eq.holds_for(*pair):
                return WRONG, f"{key} {pair} is not a solution"
        return OK, ""

    return check


def _solve_call(mods, w: str, u: str):
    argv = ["solve", "--w", w, "--u", u, "--format", "structured"]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mods["cli"].main(argv)
        return code, out.getvalue()

    return call


def setup_describe(mods, seed: int) -> Setup:
    words = mods["words"]
    planted = planted_equations(words, seed)
    specs = [(w, u, group, _describe_check(mods, expected=expected))
             for w, u, group, expected in ANCHORS]
    specs += [(w, u or "1", "planted", _describe_check(mods, planted=pair))
              for _, w, u, pair in planted]
    rounds = [list(specs) for _ in range(DESCRIBE_REPEATS)]
    for i, (w, u) in enumerate(LARGE_U):
        rounds[i * (DESCRIBE_REPEATS - 1) // (len(LARGE_U) - 1)].append(
            (w, u, "large_u", _describe_check(mods)))
    rng = random.Random(f"describe:{seed}")
    ops = []
    for round_specs in rounds:
        rng.shuffle(round_specs)
        ops += [Op(group=group, text=f"solve {w} {u}",
                   call=_solve_call(mods, w, u), check=check)
                for w, u, group, check in round_specs]

    def extra(times):
        return {f"{group}_s": measure.group_time(times, {op.text for op in ops if op.group == group})
                for group in ("large_u", "planted")}

    return Setup(ops=ops, extra=extra)


# ---------------------------------------------------------------------------
# certify: ``oracle.certify`` against descriptions built during set-up

# (w, u, ball radius, group, total brute-force solutions at the seed).
CERTIFY_CASES = (
    ("[x,y]", "[a,b]", 5, "qh", 119),
    ("xYxy", "aBab", 5, "hnn", 19),
    ("xxyy", "aabb", 6, "hnn", 9),
    ("xxyy", "aaaa", 8, "closed_form", 15),
    ("xy", "ab", 6, "closed_form", 485),
    ("xxyy", "1", 4, "closed_form", 161),
    ("xxxyyy", "aaabbb", 9, "rigid", 3),
)


def equation(mods, w: str, u: str):
    words, solver = mods["words"], mods["solver"]
    alphabet = words.Alphabet.from_string("ab")
    return solver.Equation(alphabet, words.parse_word(w, "xy"), words.parse_word(u, alphabet.letters))


def _budget_trip(mods, exc) -> bool:
    """A search that ran out of budget.  ``delta_orbit_closure`` still
    signals its visit budget with a ``WordError``; that trip counts as
    unresolved too, not as a wrong answer."""
    if isinstance(exc, mods["autf2"].SearchBudgetExceeded):
        return True
    return isinstance(exc, mods["words"].WordError) and "visit budget" in str(exc)


def setup_certify(mods, seed: int) -> Setup:
    solver, oracle = mods["solver"], mods["oracle"]
    cases = list(CERTIFY_CASES)
    random.Random(f"certify:{seed}").shuffle(cases)
    ops = []
    for w, u, radius, group, total in cases:
        eq = equation(mods, w, u)
        desc = solver.describe_variety(eq)
        if desc.status != solver.STATUS_OK:
            raise RuntimeError(f"set-up could not describe {w}={u}: {desc.note}")

        def call(eq=eq, desc=desc, radius=radius):
            return oracle.certify(eq, desc, radius)

        def check(report, total=total):
            if isinstance(report, BaseException):
                if _budget_trip(mods, report):
                    return UNRESOLVED, "closure"
                return WRONG, f"raised {type(report).__name__}: {report}"
            if not report.covered:
                return WRONG, f"{len(report.uncovered)} solutions uncovered"
            if report.total_solutions != total:
                return WRONG, f"{report.total_solutions} solutions, expected {total}"
            return OK, ""

        ops.append(Op(group=group, text=f"certify {w} {u} {radius}", call=call, check=check))

    def extra(times):
        return {
            "commutator_L5_s": times["certify [x,y] [a,b] 5"],
            "xYxy_L5_s": times["certify xYxy aBab 5"],
            "squares_L6_s": times["certify xxyy aabb 6"],
            "families_s": sum(times[op.text] for op in ops if op.group == "closed_form"),
        }

    return Setup(ops=ops, extra=extra)


# ---------------------------------------------------------------------------
# generate: members from descriptions built during set-up, each verified

GENERATE_DESCRIPTIONS = (
    ("qh", "[x,y]", "[a,b]", "qh"),
    ("squares", "xxyy", "aabb", "hnn"),
    ("twisted", "xYxy", "aBab", "hnn"),
    ("rigid", "xxxyyy", "aaabbb", "rigid"),
    ("parametric", "xy", "ab", "closed_form"),
    ("rank1", "xxyy", "aaaa", "closed_form"),
    ("trivial", "xxyy", "1", "closed_form"),
)
SIGMA_LENGTHS = range(1, 7)
SIGMAS_PER_LENGTH = 8  # generate_orbit requests per sigma length and description
EXPONENTS = tuple(range(-3, 4))
COPIES = 2  # each exponent or parameter length this often per entry point


def _deck(rng, values, copies: int) -> list:
    """``values`` repeated ``copies`` times in seeded order.

    Drawing from decks gives every pass each value equally often, so a new
    seed changes the inputs but not the mix of their costs.
    """
    out = list(values) * copies
    rng.shuffle(out)
    return out


def _random_word(rng, length: int) -> str:
    out: list[str] = []
    for _ in range(length):
        out.append(rng.choice([c for c in "aAbB" if not out or c != out[-1].swapcase()]))
    return "".join(out)


def _sigmas(rng, symbols: str) -> list[str]:
    """Sigma words of every length, using each signed symbol equally often."""
    lengths = _deck(rng, SIGMA_LENGTHS, SIGMAS_PER_LENGTH)
    letters = symbols + symbols.upper()
    copies = -(-sum(lengths) // len(letters))
    deck = iter(_deck(rng, letters, copies))
    return ["".join(next(deck) for _ in range(n)) for n in lengths]


def generate_requests(descs, seed: int) -> list[tuple[str, str, tuple]]:
    """``(description, entry point, arguments)`` for one pass, from the seed.

    ``descs`` maps a description name to the generator symbols it carries
    (empty for the closed-form families).
    """
    rng = random.Random(f"generate:{seed}")
    out = []
    for name, symbols in descs.items():
        if name == "parametric":
            lengths = _deck(rng, range(7), COPIES)
            out += [(name, "parametric", (_random_word(rng, n),)) for n in lengths]
        elif name == "rank1":
            out += [(name, "rank1", (n,)) for n in _deck(rng, EXPONENTS, COPIES)]
        elif name == "trivial":
            out += [(name, "trivial", (_random_word(rng, rng.randint(1, 3)), k))
                    for k in _deck(rng, EXPONENTS, COPIES)]
        else:
            out += [(name, "orbit", (sigma,)) for sigma in _sigmas(rng, symbols)]
            out += [(name, "conjugates", (n,)) for n in _deck(rng, EXPONENTS, COPIES)]
            if name in ("squares", "twisted"):
                pairs = zip(_deck(rng, EXPONENTS, COPIES), _deck(rng, EXPONENTS, COPIES))
                out += [(name, "hnn", pair) for pair in pairs]
    rng.shuffle(out)
    return out


def _generate_call(solver, desc, entry: str, args: tuple):
    def member():
        if entry == "orbit":
            return solver.generate_orbit(desc, 0, *args)
        if entry == "conjugates":
            return solver.generate_conjugates(desc, 0, *args)
        if entry == "hnn":
            return solver.generate_hnn(desc, 0, *args)
        if entry == "parametric":
            return solver.generate_parametric(desc, *args)
        if entry == "rank1":
            return solver.generate_rank1(desc, *args)
        root, k = args
        g0, g1 = desc.trivial.generators[0]
        return solver.generate_trivial(desc, root, k * g0, k * g1)

    def call():
        pair = member()
        return pair, solver.verify_solution(desc.reduced, *pair)

    return call


def _generate_check(result):
    if isinstance(result, BaseException):
        return WRONG, f"raised {type(result).__name__}: {result}"
    pair, (ok, _rank) = result
    return (OK, "") if ok else (WRONG, f"{pair} does not verify")


def setup_generate(mods, seed: int) -> Setup:
    solver = mods["solver"]
    descs, groups = {}, {}
    for name, w, u, group in GENERATE_DESCRIPTIONS:
        desc = solver.describe_variety(equation(mods, w, u))
        if desc.status != solver.STATUS_OK:
            raise RuntimeError(f"set-up could not describe {w}={u}: {desc.note}")
        descs[name], groups[name] = desc, group
    symbols = {name: "".join(g.symbol for g in d.generators) for name, d in descs.items()}
    ops = [
        Op(group=groups[name], text=f"{name} {entry} {args!r}",
           call=_generate_call(solver, descs[name], entry, args), check=_generate_check)
        for name, entry, args in generate_requests(symbols, seed)
    ]
    return Setup(ops=ops)


WORKLOADS = {
    "describe": setup_describe,
    "certify": setup_certify,
    "generate": setup_generate,
}
