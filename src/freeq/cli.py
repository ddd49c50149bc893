"""Command-line interface.

Subcommands: ``classify``, ``solve``, ``gen``, ``verify``, ``brute``,
``certify``, ``demo-two-level``.  Exit codes: 0 success, 1 usage or parse
error, 2 a bounded search gave no verdict (unresolved), 3 certification
found uncovered solutions.

With ``--format structured`` the output is a flat, versioned ``key: value``
listing that is byte-identical across runs with equal flags (timings are
only shown in the default human format).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .autf2 import SearchBudgetExceeded
from .oracle import brute_force_solutions, certify
from .solver import (
    CASE_HNN,
    CASE_QH,
    CASE_UNRESOLVED,
    KIND_JSJ,
    KIND_PARAMETRIC,
    KIND_RANK1_ONLY,
    KIND_TRIVIAL,
    STATUS_OK,
    Budgets,
    Equation,
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
from .words import Alphabet, WordError, format_word, parse_word

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
    parser.add_argument("--orbit-cap", type=_positive, default=10**6, metavar="N",
                        help="visited cyclic forms before an orbit search gives up")
    parser.add_argument("--hnn-budget", type=_positive, default=10**4, metavar="N",
                        help="tested bases before the splitting search gives up")


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


def _jobs(text: str) -> int:
    """A worker count: at least 1, at most the number of CPUs."""
    return min(_positive(text), os.cpu_count() or 1)


def _budgets(args) -> Budgets:
    return Budgets(orbit_max_visited=args.orbit_cap, hnn_max_bases=args.hnn_budget)


def _equation(args) -> Equation:
    alphabet = Alphabet.from_string(args.alphabet)
    lhs = parse_word(args.w, "xy")
    rhs = parse_word(args.u, alphabet.letters)
    return Equation(alphabet, lhs, rhs)


def _emit(lines) -> None:
    for line in lines:
        print(line)


def _structured(command: str, fields) -> list[str]:
    lines = [STRUCTURED_HEADER, f"command: {command}"]
    lines.extend(f"{key}: {value}" for key, value in fields)
    return lines


def _pair_text(pair) -> str:
    return f"{format_word(pair[0])} {format_word(pair[1])}"


def _description_fields(desc: VarietyDescription) -> list[tuple[str, str]]:
    fields = [
        ("alphabet", str(desc.equation.alphabet)),
        ("lhs", format_word(desc.equation.lhs)),
        ("rhs", format_word(desc.equation.rhs)),
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
        fields.append(("case", desc.classification.kind))
        if desc.classification.kind == CASE_HNN:
            hnn = desc.classification.hnn
            fields.append(("splitting.p", format_word(hnn.p)))
            fields.append(("splitting.q", format_word(hnn.q)))
            fields.append(("splitting.t", format_word(hnn.t)))
        elif desc.classification.kind == CASE_QH:
            nu = desc.classification.normalizer
            fields.append(("normalizer.x", format_word(nu.image_x)))
            fields.append(("normalizer.y", format_word(nu.image_y)))
            fields.append(("normalizer.target", desc.classification.target))
    for i, gen in enumerate(desc.generators):
        fields.append((f"generator.{i}", f"{gen.symbol} {gen.name} "
                       f"{format_word(gen.aut.image_x)} {format_word(gen.aut.image_y)}"))
    for i, sol in enumerate(desc.minimal):
        fields.append((f"minimal.{i}", _pair_text(sol)))
    return fields


def _describe_human(desc: VarietyDescription) -> list[str]:
    lines = [f"equation: {desc.equation} (alphabet {desc.equation.alphabet})"]
    if desc.reduced != desc.equation:
        lines.append(f"reduced to: {desc.reduced}")
    lines.append(f"status: {desc.status}" + (f" ({desc.note})" if desc.note else ""))
    lines.append(f"kind: {desc.kind}" + (f", solution formula: {desc.formula}" if desc.formula else ""))
    if desc.trivial is not None:
        gens = ", ".join(f"({g[0]}, {g[1]})" for g in desc.trivial.generators)
        lines.append(f"all solutions are powers (r^n1, r^n2) of a common root; lattice spanned by {gens}")
    if desc.rank1 is not None:
        if desc.rank1.is_empty():
            lines.append("commuting solutions: none")
        else:
            b, d = desc.rank1.base, desc.rank1.direction
            lines.append(
                f"commuting solutions: root {format_word(desc.rank1.root)}, "
                f"exponents ({b[0]}{d[0]:+d}n, {b[1]}{d[1]:+d}n)"
            )
    if desc.parametric is not None:
        lines.append(
            f"every solution is (X(u,z), Y(u,z)) for one free word z: "
            f"X = {format_word(desc.parametric.aut.image_x)}, "
            f"Y = {format_word(desc.parametric.aut.image_y)} (x := u, y := z)"
        )
    if desc.classification is not None:
        lines.append(f"case: {desc.classification.kind}")
        if desc.classification.kind == CASE_HNN and desc.classification.hnn:
            hnn = desc.classification.hnn
            lines.append(f"splitting: p={format_word(hnn.p)} q={format_word(hnn.q)} t={format_word(hnn.t)}")
        if desc.classification.kind == CASE_QH and desc.classification.normalizer:
            nu = desc.classification.normalizer
            lines.append(f"normalizer to {desc.classification.target}: x->{format_word(nu.image_x)}, y->{format_word(nu.image_y)}")
    if desc.generators:
        lines.append("canonical generators (symbol, name, images):")
        for gen in desc.generators:
            lines.append(f"  {gen.symbol}  {gen.name}  x->{format_word(gen.aut.image_x)}, y->{format_word(gen.aut.image_y)}")
    if desc.minimal:
        lines.append("minimal rank-two solutions:")
        for i, sol in enumerate(desc.minimal):
            lines.append(f"  {i}: g1={format_word(sol[0])} g2={format_word(sol[1])}")
    elif desc.kind == KIND_JSJ:
        lines.append("minimal rank-two solutions: none")
    return lines


def _cmd_classify(args) -> int:
    from .solver import classify_jsj

    w = parse_word(args.w, "xy")
    cls = classify_jsj(w, _budgets(args))
    if args.format == "structured":
        fields = [("lhs", format_word(w)), ("case", cls.kind)]
        if cls.kind == CASE_HNN:
            fields += [("splitting.p", cls.hnn.p), ("splitting.q", cls.hnn.q), ("splitting.t", cls.hnn.t)]
        elif cls.kind == CASE_QH:
            fields += [
                ("normalizer.x", format_word(cls.normalizer.image_x)),
                ("normalizer.y", format_word(cls.normalizer.image_y)),
                ("normalizer.target", cls.target),
            ]
        if cls.note:
            fields.append(("note", cls.note))
        _emit(_structured("classify", fields))
    else:
        lines = [f"word: {format_word(w)}", f"case: {cls.kind}"]
        if cls.kind == CASE_HNN:
            lines.append(f"splitting: p={cls.hnn.p} q={cls.hnn.q} t={cls.hnn.t}")
        elif cls.kind == CASE_QH:
            lines.append(
                f"normalizer to {cls.target}: x->{format_word(cls.normalizer.image_x)}, "
                f"y->{format_word(cls.normalizer.image_y)}"
            )
        if cls.note:
            lines.append(f"note: {cls.note}")
        _emit(lines)
    return EXIT_UNRESOLVED if cls.kind == CASE_UNRESOLVED else EXIT_OK


def _cmd_solve(args) -> int:
    eq = _equation(args)
    desc = describe_variety(eq, _budgets(args))
    if args.format == "structured":
        _emit(_structured("solve", _description_fields(desc)))
    else:
        _emit(_describe_human(desc))
    return EXIT_OK if desc.status == STATUS_OK else EXIT_UNRESOLVED


def _cmd_gen(args) -> int:
    eq = _equation(args)
    desc = describe_variety(eq, _budgets(args))
    if desc.status != STATUS_OK:
        print(f"cannot generate from an unresolved description: {desc.note}", file=sys.stderr)
        return EXIT_UNRESOLVED
    if desc.kind == KIND_TRIVIAL:
        if args.root is None:
            raise WordError("generating for a trivial right side needs --root")
        root = parse_word(args.root, eq.alphabet.letters)
        pair = generate_trivial(desc, root, args.n, args.m if args.m is not None else 0)
    elif desc.kind == KIND_PARAMETRIC:
        z = parse_word(args.z if args.z is not None else "1", eq.alphabet.letters)
        pair = generate_parametric(desc, z)
    elif desc.kind == KIND_RANK1_ONLY:
        pair = generate_rank1(desc, args.n)
    elif desc.kind == KIND_JSJ:
        if args.sigma is not None:
            pair = generate_orbit(desc, args.index, args.sigma)
        elif desc.classification.kind == CASE_HNN and args.m is not None:
            pair = generate_hnn(desc, args.index, args.n, args.m)
        else:
            pair = generate_conjugates(desc, args.index, args.n)
    else:
        raise WordError(f"the solution set is empty; nothing to generate")
    ok, rank = verify_solution(desc.reduced, *pair)
    if args.format == "structured":
        _emit(_structured("gen", [
            ("g1", format_word(pair[0])),
            ("g2", format_word(pair[1])),
            ("verified", str(ok).lower()),
            ("rank", str(rank)),
        ]))
    else:
        _emit([
            f"g1: {format_word(pair[0])}",
            f"g2: {format_word(pair[1])}",
            f"verified: {str(ok).lower()} (rank {rank})",
        ])
    return EXIT_OK


def _cmd_verify(args) -> int:
    eq = _equation(args)
    g1 = parse_word(args.g1, eq.alphabet.letters)
    g2 = parse_word(args.g2, eq.alphabet.letters)
    ok, rank = verify_solution(eq, g1, g2)
    if args.format == "structured":
        _emit(_structured("verify", [
            ("g1", format_word(g1)),
            ("g2", format_word(g2)),
            ("solution", str(ok).lower()),
            ("rank", str(rank)),
        ]))
    else:
        _emit([f"solution: {'yes' if ok else 'no'}", f"rank: {rank}"])
    return EXIT_OK


def _ball_radius(args, eq: Equation) -> int:
    if args.max_len is not None:
        return args.max_len
    return len(eq.rhs) + 2


def _cmd_brute(args) -> int:
    eq = _equation(args)
    radius = _ball_radius(args, eq)
    result = brute_force_solutions(eq, radius, jobs=args.jobs)
    counts = result.rank_counts()
    if args.format == "structured":
        fields = [
            ("alphabet", str(eq.alphabet)),
            ("lhs", format_word(eq.lhs)),
            ("rhs", format_word(eq.rhs)),
            ("max-len", str(radius)),
            ("total", str(len(result.solutions))),
            ("rank0", str(counts[0])),
            ("rank1", str(counts[1])),
            ("rank2", str(counts[2])),
        ]
        fields += [(f"solution.{i}", f"{_pair_text((g1, g2))} {rank}")
                   for i, (g1, g2, rank) in enumerate(result.solutions)]
        _emit(_structured("brute", fields))
    else:
        _emit([f"equation: {eq} (alphabet {eq.alphabet}), ball {radius}"])
        for g1, g2, rank in result.solutions:
            print(f"  g1={format_word(g1)} g2={format_word(g2)} rank={rank}")
        _emit([f"total: {len(result.solutions)} (rank 0/1/2: {counts[0]}/{counts[1]}/{counts[2]})"])
    return EXIT_OK


def _cmd_certify(args) -> int:
    import time

    eq = _equation(args)
    started = time.monotonic()
    desc = describe_variety(eq, _budgets(args))
    if desc.status != STATUS_OK:
        print(f"describe: unresolved ({desc.note})", file=sys.stderr)
        return EXIT_UNRESOLVED
    radius = _ball_radius(args, eq)
    report = certify(eq, desc, radius, jobs=args.jobs)
    if args.format == "structured":
        fields = [
            ("alphabet", str(eq.alphabet)),
            ("lhs", format_word(eq.lhs)),
            ("rhs", format_word(eq.rhs)),
            ("kind", report.description_kind),
            ("formula", report.formula or "-"),
            ("max-len", str(report.max_len)),
            ("closure-len", str(report.closure_len) if report.closure_len is not None else "-"),
            ("total", str(report.total_solutions)),
            ("rank0", str(report.rank_counts[0])),
            ("rank1", str(report.rank_counts[1])),
            ("rank2", str(report.rank_counts[2])),
            ("covered", str(report.covered).lower()),
        ]
        if report.family_exact is not None:
            fields.append(("family-exact", str(report.family_exact).lower()))
        fields += [(f"uncovered.{i}", _pair_text(p)) for i, p in enumerate(report.uncovered)]
        _emit(_structured("certify", fields))
    else:
        total_elapsed = time.monotonic() - started
        _emit([
            f"equation: {eq} (alphabet {eq.alphabet})",
            f"description: {report.description_kind} / {report.formula or '-'}",
            f"ball: {report.max_len}" + (
                f" (orbit closure explored to {report.closure_len})" if report.closure_len else ""
            ),
            f"solutions: {report.total_solutions} "
            f"(rank 0/1/2: {report.rank_counts[0]}/{report.rank_counts[1]}/{report.rank_counts[2]})",
            f"covered: {str(report.covered).lower()}",
        ])
        if report.family_exact is not None:
            print(f"family matches ball exactly: {str(report.family_exact).lower()}")
        for pair in report.uncovered:
            print(f"  uncovered: g1={format_word(pair[0])} g2={format_word(pair[1])}")
        print(f"elapsed: {total_elapsed:.2f}s")
    return EXIT_OK if report.covered else EXIT_UNCOVERED


def _cmd_demo(args) -> int:
    pair = two_level_member(args.n, args.m)
    checked = verify_two_level(*pair) if args.verify else None
    if args.format == "structured":
        fields = [
            ("n", str(args.n)),
            ("m", str(args.m)),
            ("g1", format_word(pair[0])),
            ("g2", format_word(pair[1])),
        ]
        if checked is not None:
            fields.append(("verified", str(checked).lower()))
        _emit(_structured("demo-two-level", fields))
    else:
        _emit([
            f"member (n={args.n}, m={args.m}):",
            f"g1: {format_word(pair[0])}",
            f"g2: {format_word(pair[1])}",
        ])
        if checked is not None:
            print(f"nested equation holds: {str(checked).lower()}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--index", type=int, default=0, help="which minimal solution to start from")
    p.add_argument("--n", type=int, default=0, help="family parameter n")
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
    p.add_argument("--jobs", type=_jobs, default=1, help="parallel workers (at most the CPU count)")
    _add_format(p)
    p.set_defaults(func=_cmd_brute)

    p = sub.add_parser("certify", help="check the description against brute force")
    _add_equation_args(p)
    _add_budget_args(p)
    p.add_argument("-L", "--max-len", type=_count, default=None, help="ball radius (default |u|+2)")
    p.add_argument("--jobs", type=_jobs, default=1, help="parallel workers (at most the CPU count)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WordError as exc:
        print(f"freeq: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SearchBudgetExceeded as exc:
        print(f"freeq: unresolved: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVED


if __name__ == "__main__":
    sys.exit(main())
