"""Command-line interface.

Subcommands: ``classify``, ``solve``, ``gen``, ``verify``, ``brute``,
``certify``, ``demo-two-level``.  Exit codes: 0 success, 1 usage or parse
error, 2 a bounded search gave no verdict (unresolved), 3 certification
found uncovered solutions.

Each command builds one list of ``key: value`` fields, and ``main`` prints
it.  ``--format structured`` prints the versioned header ``freeq/1`` and
``command: <name>`` first, and is byte-identical across runs with equal
flags.  The default human format prints the same fields without the header,
then one ``elapsed: N.NNs`` line with the command's wall time.

A process builds one parser, on the first ``main`` call, and every later
call parses with it.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from . import __version__
from .oracle import brute_force_solutions, certify
from .solver import (
    CASE_HNN,
    CASE_QH,
    CASE_UNRESOLVED,
    HNN_MAX_BASES,
    KIND_JSJ,
    KIND_PARAMETRIC,
    KIND_RANK1_ONLY,
    KIND_TRIVIAL,
    STATUS_OK,
    Equation,
    LeftSide,
    VarietyDescription,
    describe_variety,
    generate_conjugates,
    generate_hnn,
    generate_orbit,
    generate_parametric,
    generate_rank1,
    generate_trivial,
    two_level_member,
    verify_solution,
    verify_two_level,
)
from .words import Alphabet, WordError, conjugate, format_word, parse_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNRESOLVED = 2
EXIT_UNCOVERED = 3

STRUCTURED_HEADER = "freeq/1"


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 is reserved for unresolved."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_format(parser) -> None:
    parser.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="output style (structured is versioned and byte-stable)",
    )


def _add_equation_args(parser) -> None:
    parser.add_argument("--alphabet", default="ab", help="coefficient letters (default: ab)")
    parser.add_argument("--w", required=True, help="left side, a word in x and y")
    parser.add_argument("--u", required=True, help="right side, a word over the alphabet (1 = identity)")


def _add_budget_args(parser) -> None:
    parser.add_argument("--hnn-budget", type=_positive, metavar="N",
                        default=HNN_MAX_BASES,
                        help="bases walked before the splitting search gives up")


def _count(text: str, least: int = 0) -> int:
    """A count that must be at least ``least`` (a ball radius: at least 0)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}") from None
    if n < least:
        raise argparse.ArgumentTypeError(f"the count must be at least {least}, not {n}")
    return n


def _positive(text: str) -> int:
    """A count that must be at least 1."""
    return _count(text, 1)


def _equation(args) -> Equation:
    alphabet = Alphabet.from_string(args.alphabet)
    lhs = parse_word(args.w, "xy")
    rhs = parse_word(args.u, alphabet.letters)
    return Equation(alphabet, lhs, rhs)


def _pair_text(pair) -> str:
    return f"{format_word(pair[0])} {format_word(pair[1])}"


def _pair_fields(g1: str, g2: str) -> list[tuple[str, str]]:
    return [("g1", format_word(g1)), ("g2", format_word(g2))]


def _equation_fields(eq: Equation) -> list[tuple[str, str]]:
    return [
        ("alphabet", str(eq.alphabet)),
        ("lhs", format_word(eq.lhs)),
        ("rhs", format_word(eq.rhs)),
    ]


def _rank_fields(counts) -> list[tuple[str, str]]:
    return [(f"rank{rank}", str(n)) for rank, n in enumerate(counts)]


def _classification_fields(cls) -> list[tuple[str, str]]:
    fields, aut = [("case", cls.kind)], cls.aut
    if cls.kind == CASE_HNN:  # the splitting basis x -> p, y -> t, and q = t^-1 p t
        fields.append(("splitting.p", format_word(aut.image_x)))
        fields.append(("splitting.q", format_word(conjugate(aut.image_x, aut.image_y))))
        fields.append(("splitting.t", format_word(aut.image_y)))
    elif cls.kind == CASE_QH:  # aut^-1 carries the left side to XYxy
        fields.append(("normalizer.x", format_word(aut.inverse_x)))
        fields.append(("normalizer.y", format_word(aut.inverse_y)))
        fields.append(("normalizer.target", "XYxy"))
    return fields


def _description_fields(desc: VarietyDescription) -> list[tuple[str, str]]:
    fields = _equation_fields(desc.equation) + [
        ("status", desc.status),
        ("kind", desc.kind),
        ("formula", desc.formula or "-"),
    ]
    if desc.note:
        fields.append(("note", desc.note))
    if desc.reduced != desc.equation:
        fields.append(("reduced.lhs", format_word(desc.reduced.lhs)))
        fields.append(("reduced.rhs", format_word(desc.reduced.rhs)))
    if desc.trivial is not None:
        for i, gen in enumerate(desc.trivial.generators):
            fields.append((f"lattice.{i}", f"{gen[0]} {gen[1]}"))
    if desc.rank1 is not None:
        if desc.rank1.is_empty():
            fields.append(("rank1", "empty"))
        else:
            fields.append(("rank1.root", format_word(desc.rank1.root)))
            fields.append(("rank1.base", f"{desc.rank1.base[0]} {desc.rank1.base[1]}"))
            fields.append(("rank1.direction", f"{desc.rank1.direction[0]} {desc.rank1.direction[1]}"))
    if desc.parametric is not None:
        fields.append(("parametric.x", format_word(desc.parametric.aut.image_x)))
        fields.append(("parametric.y", format_word(desc.parametric.aut.image_y)))
    if desc.classification is not None:
        fields += _classification_fields(desc.classification)
    for i, gen in enumerate(desc.generators):
        fields.append((f"generator.{i}", f"{gen.symbol} {gen.name} "
                       f"{format_word(gen.aut.image_x)} {format_word(gen.aut.image_y)}"))
    for i, sol in enumerate(desc.minimal):
        fields.append((f"minimal.{i}", _pair_text(sol)))
    return fields


# Each command returns (exit code, fields); fields is None when the command
# has already reported on stderr and prints nothing.


def _cmd_classify(args):
    left = LeftSide(parse_word(args.w, "xy"), args.hnn_budget)
    cls = left.classification
    fields = [("lhs", format_word(left.word))]
    fields += [("reduced.lhs", format_word(left.root))] if left.power > 1 else []
    fields += _classification_fields(cls)
    if cls.note:
        fields.append(("note", cls.note))
    return (EXIT_UNRESOLVED if cls.kind == CASE_UNRESOLVED else EXIT_OK), fields


def _cmd_solve(args):
    desc = describe_variety(_equation(args), args.hnn_budget)
    return (EXIT_OK if desc.status == STATUS_OK else EXIT_UNRESOLVED), _description_fields(desc)


# The gen flags each kind of description can use; any other flag is refused.
_GEN_FLAGS = ("index", "n", "m", "z", "root", "sigma")
_GEN_FLAGS_BY_KIND = {KIND_TRIVIAL: ("root", "n", "m"), KIND_PARAMETRIC: ("z",),
                      KIND_RANK1_ONLY: ("n",), KIND_JSJ: ("index", "n", "m", "sigma")}


def _cmd_gen(args):
    eq = _equation(args)
    desc = describe_variety(eq, args.hnn_budget)
    if desc.status != STATUS_OK:
        print(f"cannot generate from an unresolved description: {desc.note}", file=sys.stderr)
        return EXIT_UNRESOLVED, None
    if desc.kind not in _GEN_FLAGS_BY_KIND:
        raise WordError("the solution set is empty; nothing to generate")
    unused = [f"--{flag}" for flag in _GEN_FLAGS
              if getattr(args, flag) is not None and flag not in _GEN_FLAGS_BY_KIND[desc.kind]]
    if unused:
        raise WordError(f"a {desc.kind} description cannot use {', '.join(unused)}")
    ignored = [f"--{flag}" for flag in ("n", "m") if getattr(args, flag) is not None]
    if args.sigma is not None and ignored:
        raise WordError(f"--sigma cannot be combined with {', '.join(ignored)}")
    index, n = args.index or 0, args.n or 0
    if desc.kind == KIND_TRIVIAL:
        if args.root is None:
            raise WordError("generating for a trivial right side needs --root")
        root = parse_word(args.root, eq.alphabet.letters)
        pair = generate_trivial(desc, root, n, args.m if args.m is not None else 0)
    elif desc.kind == KIND_PARAMETRIC:
        z = parse_word(args.z if args.z is not None else "1", eq.alphabet.letters)
        pair = generate_parametric(desc, z)
    elif desc.kind == KIND_RANK1_ONLY:
        pair = generate_rank1(desc, n)
    elif args.sigma is not None:
        pair = generate_orbit(desc, index, args.sigma)
    elif args.m is not None:
        pair = generate_hnn(desc, index, n, args.m)
    else:
        pair = generate_conjugates(desc, index, n)
    ok, rank = verify_solution(desc.reduced, *pair)
    return EXIT_OK, _pair_fields(*pair) + [("verified", str(ok).lower()), ("rank", str(rank))]


def _cmd_verify(args):
    eq = _equation(args)
    g1 = parse_word(args.g1, eq.alphabet.letters)
    g2 = parse_word(args.g2, eq.alphabet.letters)
    ok, rank = verify_solution(eq, g1, g2)
    return EXIT_OK, _pair_fields(g1, g2) + [("solution", str(ok).lower()), ("rank", str(rank))]


def _ball_radius(args, eq: Equation) -> int:
    return args.max_len if args.max_len is not None else len(eq.rhs) + 2


def _cmd_brute(args):
    eq = _equation(args)
    radius = _ball_radius(args, eq)
    result = brute_force_solutions(eq, radius)
    fields = _equation_fields(eq) + [("max-len", str(radius)), ("total", str(len(result.solutions)))]
    fields += _rank_fields(result.rank_counts())
    fields += [(f"solution.{i}", f"{_pair_text((g1, g2))} {rank}")
               for i, (g1, g2, rank) in enumerate(result.solutions)]
    return EXIT_OK, fields


def _cmd_certify(args):
    eq = _equation(args)
    desc = describe_variety(eq, args.hnn_budget)
    if desc.status != STATUS_OK:
        print(f"describe: unresolved ({desc.note})", file=sys.stderr)
        return EXIT_UNRESOLVED, None
    report = certify(eq, desc, _ball_radius(args, eq))
    fields = _equation_fields(eq) + [
        ("kind", desc.kind),
        ("formula", desc.formula or "-"),
        ("max-len", str(report.max_len)),
        ("total", str(report.total_solutions)),
    ]
    fields += _rank_fields(report.rank_counts)
    fields.append(("covered", str(report.covered).lower()))
    if report.family_exact is not None:
        fields.append(("family-exact", str(report.family_exact).lower()))
    fields += [(f"uncovered.{i}", _pair_text(p)) for i, p in enumerate(report.uncovered)]
    return (EXIT_OK if report.covered else EXIT_UNCOVERED), fields


def _cmd_demo(args):
    pair = two_level_member(args.n, args.m)
    fields = [("n", str(args.n)), ("m", str(args.m))] + _pair_fields(*pair)
    if args.verify:
        fields.append(("verified", str(verify_two_level(*pair)).lower()))
    return EXIT_OK, fields


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: every ``main``
    call parses with it, so no caller may change it.  ``set_defaults(func=...)``
    binds each ``_cmd_*`` when the parser is built, so a test that patches a
    command function must do so before the first ``main`` call."""
    parser = _ArgumentParser(prog="freeq", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    p = sub.add_parser("classify", help="splitting case of a variable word")
    p.add_argument("--w", required=True, help="a word in x and y")
    _add_budget_args(p)
    _add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="describe the full solution set")
    _add_equation_args(p)
    _add_budget_args(p)
    _add_format(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate one solution from the description")
    _add_equation_args(p)
    _add_budget_args(p)
    p.add_argument("--index", type=int, default=None, help="which minimal solution (default 0)")
    p.add_argument("--n", type=int, default=None, help="family parameter n (default 0)")
    p.add_argument("--m", type=int, default=None, help="family parameter m")
    p.add_argument("--z", default=None, help="free word parameter (parametric kind)")
    p.add_argument("--root", default=None, help="root word (trivial right side)")
    p.add_argument("--sigma", default=None, help="word in the canonical generator symbols")
    _add_format(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check one candidate pair")
    _add_equation_args(p)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    _add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("brute", help="enumerate all solutions in a length ball")
    _add_equation_args(p)
    p.add_argument("-L", "--max-len", type=_count, default=None, help="ball radius (default |u|+2)")
    _add_format(p)
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("certify", help="check the description against brute force")
    _add_equation_args(p)
    _add_budget_args(p)
    p.add_argument("-L", "--max-len", type=_count, default=None, help="ball radius (default |u|+2)")
    _add_format(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("demo-two-level", help="a two-parameter family for a nested equation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="also evaluate the nested word")
    _add_format(p)
    p.set_defaults(func=_cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        code, fields = args.func(args)
    except WordError as exc:
        print(f"freeq: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if fields is not None:
        lines = [f"{key}: {value}" for key, value in fields]
        if args.format == "structured":
            lines = [STRUCTURED_HEADER, f"command: {args.command}"] + lines
        else:
            lines.append(f"elapsed: {time.monotonic() - started:.2f}s")
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
