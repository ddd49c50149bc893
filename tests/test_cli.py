"""Command-line behavior: output shapes, determinism, exit codes."""

import dataclasses
import os
import pathlib
import re
import subprocess
import sys

import pytest

import freeq.cli as cli
from freeq.solver import HNN_MAX_BASES


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The directory that holds the freeq package, so that a child process finds
# it without an install, as the test run itself does.
_SRC = str(pathlib.Path(cli.__file__).resolve().parents[1])


def run_proc(*argv):
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-m", "freeq.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC + (os.pathsep + path if path else "")},
    )


def _load_golden(path):
    """Map each argv line of ``path`` to its (exit code, structured stdout).

    A case is a ``$ <argv>`` line, an ``exit: <code>`` line, then the
    stdout of ``freeq <argv> --format structured`` verbatim.
    """
    cases = {}
    for line in path.read_text().splitlines(keepends=True):
        if line.startswith("$ "):
            lines = cases[line[2:].strip()] = []
        else:
            lines.append(line)
    return {argv: (int(lines[0].removeprefix("exit: ")), "".join(lines[1:]))
            for argv, lines in cases.items()}


# Every command and every field branch: hnn, qh, rigid and unresolved
# classifications; each description shape of solve, and a proper-power left
# side whose root is jsj for both classify and solve; each generator route of
# gen; both verdicts of verify; brute; certify with and without
# family-exact and uncovered pairs; the two-level demo with and without
# --verify.
GOLDEN = _load_golden(pathlib.Path(__file__).with_name("cli_structured_golden.txt"))


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_structured_output_golden(capsys, argv):
    code, out, _ = run_main(capsys, *argv.split(), "--format", "structured")
    assert (code, out) == GOLDEN[argv]


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_human_output_is_structured_fields_plus_elapsed(capsys, argv):
    structured_code, structured, _ = run_main(capsys, *argv.split(), "--format", "structured")
    human_code, human, _ = run_main(capsys, *argv.split())
    assert human_code == structured_code
    *fields, last = human.splitlines(keepends=True)
    assert fields == structured.splitlines(keepends=True)[2:]
    assert re.fullmatch(r"elapsed: \d+\.\d\ds\n", last)


def test_solve_structured_golden(capsys):
    code, out, err = run_main(
        capsys, "solve", "--w", "xxyy", "--u", "aabb", "--format", "structured"
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "freeq/1"
    assert "command: solve" in lines
    assert "kind: jsj" in lines
    assert "formula: hnn-twist" in lines
    assert "case: hnn" in lines
    assert "splitting.p: xy" in lines
    assert "minimal.0: a b" in lines


def test_structured_output_is_deterministic(capsys):
    args = ("solve", "--w", "xxyy", "--u", "aabb", "--format", "structured")
    _, first, _ = run_main(capsys, *args)
    _, second, _ = run_main(capsys, *args)
    assert first == second


def test_classify_human(capsys):
    code, out, _ = run_main(capsys, "classify", "--w", "XYxy")
    assert code == 0
    assert "case: qh" in out


@pytest.mark.parametrize("w,root,u", [("xxxy", "xxxy", "aaab"), ("xyxy", "xy", "abab")])
def test_classify_refuses_a_primitive_root(capsys, w, root, u):
    # solve describes these left sides as parametric, with no splitting case
    code, out, err = run_main(capsys, "classify", "--w", w, "--format", "structured")
    assert (code, out) == (1, "")
    assert f"root {root} " in err
    assert "parametric" in err
    assert "kind: parametric" in run_main(capsys, "solve", "--w", w, "--u", u)[1]


def test_classify_a_proper_power_classifies_its_root(capsys):
    code, root_out, _ = run_main(capsys, "classify", "--w", "xxyy", "--format", "structured")
    assert code == 0
    code, power_out, _ = run_main(capsys, "classify", "--w", "(xxyy)^2", "--format", "structured")
    assert code == 0
    root_lines, power_lines = root_out.splitlines(), power_out.splitlines()
    assert power_lines[2:4] == ["lhs: xxyyxxyy", "reduced.lhs: xxyy"]
    assert power_lines[4:] == root_lines[3:]
    assert [line for line in power_lines if line.startswith(("case:", "splitting."))] == [
        "case: hnn", "splitting.p: xy", "splitting.q: Yxyy", "splitting.t: y"]


def test_verify(capsys):
    code, out, _ = run_main(capsys, "verify", "--w", "xxyy", "--u", "aabb", "--g1", "a", "--g2", "b")
    assert code == 0
    assert "solution: true" in out
    code, out, _ = run_main(capsys, "verify", "--w", "xxyy", "--u", "aabb", "--g1", "b", "--g2", "a")
    assert code == 0
    assert "solution: false" in out


def test_gen_hnn_golden(capsys):
    code, out, _ = run_main(
        capsys, "gen", "--w", "xxyy", "--u", "aabb", "--n", "0", "--m", "1"
    )
    assert code == 0
    assert "g1: aBA" in out
    assert "g2: abb" in out
    assert "verified: true" in out


def test_gen_parametric(capsys):
    code, out, _ = run_main(
        capsys, "gen", "--w", "xy", "--u", "ab", "--z", "ba", "--format", "structured"
    )
    assert code == 0
    assert "verified: true" in out


def test_gen_parse_error_exit(capsys):
    code, out, err = run_main(capsys, "verify", "--w", "xxyy", "--u", "aab)", "--g1", "a", "--g2", "b")
    assert code == 1
    assert "error" in err


def test_brute_structured(capsys):
    code, out, _ = run_main(
        capsys, "brute", "--w", "XYxy", "--u", "ABab", "-L", "1", "--format", "structured"
    )
    assert code == 0
    assert "total: 1" in out
    assert "solution.0: a b 2" in out


def test_certify_ok_exit(capsys):
    code, out, _ = run_main(capsys, "certify", "--w", "xxyy", "--u", "aabb", "-L", "4")
    assert code == 0
    assert "covered: true" in out


def test_certify_uncovered_exit(capsys, monkeypatch):
    real_certify = cli.certify

    def broken(eq, desc, max_len):
        return real_certify(eq, dataclasses.replace(desc, minimal=()), max_len)

    monkeypatch.setattr(cli, "certify", broken)
    code, out, _ = run_main(capsys, "certify", "--w", "xxyy", "--u", "aabb", "-L", "4")
    assert code == 3
    assert "covered: false" in out
    assert "uncovered" in out


@pytest.mark.parametrize("command", ["classify", "solve", "gen", "certify"])
def test_budget_flag_defaults_are_the_budgets_defaults(command):
    argv = [command, "--w", "xxyy"] + ([] if command == "classify" else ["--u", "aabb"])
    assert cli.build_parser().parse_args(argv).hnn_budget == HNN_MAX_BASES
    # orbit walks stay inside a finite ball, so there is no orbit cap to set
    proc = run_proc(*argv, "--orbit-cap", "5")
    assert proc.returncode == 1
    assert "unrecognized arguments: --orbit-cap 5" in proc.stderr


# Success, usage errors (exit 1), exit 2, an empty argv, help and version.
SHARED_PARSER_ARGVS = (
    "solve --w xxyy --u aabb --format structured",
    "classify --w xxyyxy --hnn-budget 1 --format structured",
    "--bogus verify --w xy --u ab --g1 a --g2 b",
    "certify --w xxyy --u aabb --orbit-cap 5",
    "solve --w xy",
    "-1 solve --w xy --u ab",
    "-- gen --w xy --u ab --format structured",
    "bogus --w xy",
    "",
    "--help",
    "--help solve",
    "demo-two-level --help",
    "--version",
)


def main_outcome(capsys, argv):
    """The exit code, output and errors of ``cli.main`` on ``argv``."""
    try:
        code = cli.main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", SHARED_PARSER_ARGVS)
def test_main_parses_as_with_every_command_built(capsys, monkeypatch, argv):
    """``main``'s shared parser, already used by earlier calls, gives the exit
    code, output and errors of a newly built parser of every command."""
    shared = main_outcome(capsys, argv)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert shared == main_outcome(capsys, argv)


def test_main_reuses_one_parser_and_prints_as_a_fresh_process(capsys, monkeypatch):
    """Every ``main`` call in a process parses with one parser, and a call
    carries nothing over to the next: each argv, run twice in one process
    (in order, then reversed), gives the exit code, output and errors of a
    fresh process."""
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal width
    fresh = {}
    for argv in SHARED_PARSER_ARGVS:
        proc = run_proc(*argv.split())
        fresh[argv] = proc.returncode, proc.stdout, proc.stderr
    for argv in SHARED_PARSER_ARGVS + SHARED_PARSER_ARGVS[::-1]:
        assert main_outcome(capsys, argv) == fresh[argv], argv
    assert cli.build_parser() is cli.build_parser()


def test_unresolved_exit(capsys):
    code, out, err = run_main(capsys, "classify", "--w", "xxyyxy", "--hnn-budget", "1")
    assert code == 2
    assert "case: unresolved" in out


@pytest.mark.parametrize("command, message", [
    ("gen", "cannot generate from an unresolved description: edge-splitting search"),
    ("certify", "describe: unresolved (edge-splitting search"),
])
def test_gen_and_certify_on_an_unresolved_description_exit_2(capsys, command, message):
    argv = [command, "--w", "xxyyxy", "--u", "aabbab", "--hnn-budget", "1"]
    code, out, err = run_main(capsys, *argv, *(["-L", "2"] if command == "certify" else []))
    assert code == 2
    assert out == ""
    assert err.startswith(message)


# Each asks for a member the description does not have.
@pytest.mark.parametrize("argv, message", [
    (("--w", "xxyy", "--u", "aaa"), "the solution set is empty; nothing to generate"),
    (("--w", "xxyy", "--u", "1"), "generating for a trivial right side needs --root"),
    (("--w", "xxxyyy", "--u", "aaabbb", "--m", "1"), "this description has no edge-splitting family"),
    (("--w", "xxyy", "--u", "aabb", "--index", "5"), "solution index 5 out of range 0..0"),
    (("--w", "xxyy", "--u", "1", "--root", "ab", "--n", "1", "--m", "0"),
     "exponents (1, 0) are outside the kernel lattice"),
    (("--w", "xxyy", "--u", "aabb", "--sigma", "cz"), "no canonical generator named 'z'"),
])
def test_gen_with_nothing_to_generate_exits_1(capsys, argv, message):
    code, out, err = run_main(capsys, "gen", *argv)
    assert code == 1
    assert out == ""
    assert err == f"freeq: error: {message}\n"


def test_demo_two_level(capsys):
    code, out, _ = run_main(capsys, "demo-two-level", "--n", "1", "--m", "0", "--verify")
    assert code == 0
    assert "g1: Ba" in out
    assert "g2: Bab" in out
    assert "verified: true" in out


def test_usage_errors_exit_1():
    proc = run_proc("solve", "--w", "xyx")
    assert proc.returncode == 1
    proc = run_proc("no-such-command")
    assert proc.returncode == 1
    proc = run_proc()
    assert proc.returncode == 1
    for command in ("brute", "certify"):
        proc = run_proc(command, "--w", "xxyy", "--u", "aabb", "--jobs", "2")
        assert proc.returncode == 1
        assert "unrecognized arguments: --jobs 2" in proc.stderr
    for command in ("brute", "certify"):
        proc = run_proc(command, "--w", "XYxy", "--u", "ABab", "-L", "-1")
        assert proc.returncode == 1
        assert "the count must be at least 0, not -1" in proc.stderr
    proc = run_proc("certify", "--w", "xxyy", "--u", "aabb", "-L", "abc")
    assert proc.returncode == 1
    assert "invalid count 'abc'" in proc.stderr
    # gen refuses a flag its description cannot use: --sigma without rank-two
    # solutions, --m without an edge twist, and each flag named below on a
    # kind that has no use for it.
    for unused in (("--w", "xy", "--u", "ab", "--sigma", "c"),
                   ("--w", "xxxyyy", "--u", "aaabbb", "--m", "2")):
        proc = run_proc("gen", *unused)
        assert proc.returncode == 1, unused
    for unused, named in ((("--w", "xy", "--u", "ab", "--m", "2"), "--m"),
                          (("--w", "xxyy", "--u", "aaaa", "--z", "ab"), "--z"),
                          (("--w", "xxyy", "--u", "aabb", "--z", "ab", "--root", "a"),
                           "--z, --root"),
                          (("--w", "xy", "--u", "ab", "--index", "3"), "--index")):
        proc = run_proc("gen", *unused)
        assert proc.returncode == 1, unused
        assert f"cannot use {named}" in proc.stderr, unused
    # --sigma names the whole generator word, so --n and --m have no use
    proc = run_proc("gen", "--w", "xxyy", "--u", "aabb", "--sigma", "c", "--m", "2", "--n", "5")
    assert proc.returncode == 1
    assert "--sigma cannot be combined with --n, --m" in proc.stderr
    for value in ("0", "-5"):
        proc = run_proc("solve", "--w", "xxxyyy", "--u", "aaabbb", "--hnn-budget", value)
        assert proc.returncode == 1


def test_version_flag():
    proc = run_proc("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("freeq ")


def test_structured_has_no_timings(capsys):
    _, out, _ = run_main(
        capsys, "certify", "--w", "xxyy", "--u", "aabb", "-L", "4", "--format", "structured"
    )
    assert "elapsed" not in out
    _, human, _ = run_main(capsys, "certify", "--w", "xxyy", "--u", "aabb", "-L", "4")
    assert "elapsed" in human
