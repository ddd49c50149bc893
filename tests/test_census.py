"""The census of structured output on the planted probe (``census.py``)."""

import contextlib
import io

from census import CENSUS, _digest, census_lines

import freeq.cli as cli


def test_census_matches_the_checked_in_file():
    """Every probe equation's solve and certify, and every left side's
    classify, give the line the checked-in census holds.  A change that
    alters an output regenerates the file and names the changed lines."""
    expected = CENSUS.read_text().splitlines()
    actual = census_lines()
    changed = [(old, new) for old, new in zip(expected, actual) if old != new]
    assert changed == []
    assert len(actual) == len(expected)


def test_census_digests_what_solve_prints():
    """A solve line's digest is that of what ``main`` prints: checked on the
    first line of each formula."""
    firsts = {}
    for line in CENSUS.read_text().splitlines():
        if line.startswith("solve "):
            _, w, u, _, _, formula, *_, digest = line.split()
            firsts.setdefault(formula, (w, u, digest))
    assert len(firsts) == 4
    for w, u, digest in firsts.values():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["solve", "--w", w, "--u", u, "--format", "structured"])
        assert _digest(out.getvalue()) == digest, (w, u)
