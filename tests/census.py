"""A census of freeq's structured output on the planted probe.

``PYTHONPATH=src python tests/census.py`` writes ``tests/census.txt``;
``test_census.py`` regenerates the lines and compares them with the file,
so a change to any output shows as the lines it changes.  The file holds:

- one line per equation of ``probe_equations(6)``: ``solve <w> <u>``, the
  status, kind, formula, case, generator symbols, number of minimal
  solutions, the certify verdict at radius 3, and a digest of
  ``solve --format structured``;
- one line per left side: ``classify <w>``, the exit code, the case and a
  digest of ``classify --format structured`` (stdout, then stderr).

A digest is the first 12 hex digits of a sha256, and ``-`` stands for an
empty field.  Each line is computed in process, without a child process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib

from conftest import probe_equations

import freeq.cli as cli
from freeq.oracle import certify
from freeq.solver import STATUS_OK, describe_variety

CENSUS = pathlib.Path(__file__).with_name("census.txt")
RADIUS = 3


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _structured(command: str, fields) -> str:
    """What ``main`` prints for ``fields`` under ``--format structured``."""
    lines = [cli.STRUCTURED_HEADER, f"command: {command}"]
    return "\n".join(lines + [f"{key}: {value}" for key, value in fields]) + "\n"


def _solve_line(eq) -> str:
    desc = describe_variety(eq)
    cls = desc.classification
    verdict = "-"
    if desc.status == STATUS_OK:
        verdict = "covered" if certify(eq, desc, RADIUS).covered else "uncovered"
    columns = [desc.status, desc.kind, desc.formula or "-", cls.kind if cls else "-",
               "".join(g.symbol for g in desc.generators) or "-", str(len(desc.minimal)),
               verdict, _digest(_structured("solve", cli._description_fields(desc)))]
    return " ".join(["solve", eq.lhs, eq.rhs] + columns)


def _classify_line(w: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["classify", "--w", w, "--format", "structured"])
    case = next((line.removeprefix("case: ") for line in out.getvalue().splitlines()
                 if line.startswith("case: ")), "-")
    return f"classify {w} {code} {case} {_digest(out.getvalue() + err.getvalue())}"


def census_lines() -> list[str]:
    equations = probe_equations(6)
    lines = [_solve_line(eq) for eq in equations]
    lines += [_classify_line(w) for w in dict.fromkeys(eq.lhs for eq in equations)]
    return lines


if __name__ == "__main__":
    CENSUS.write_text("".join(line + "\n" for line in census_lines()))
