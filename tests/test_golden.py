"""The default stdout of the main commands, byte for byte.

Each file under tests/golden/ is the stdout of one command.  A change that
means to alter an output regenerates its file, e.g.
`PYTHONPATH=src python3 -m surfbound.cli certify --genus 24 > tests/golden/certify-24.txt`,
and says so in CHANGES.md.
"""

from itertools import zip_longest
from pathlib import Path

import pytest

from surfbound.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "constants.txt": ("constants",),
    "constants.json": ("constants", "--json"),
    "table-check.json": ("table", "--check", "--json"),
    "cover-check.txt": ("cover", "--check"),
    "cover-check.json": ("cover", "--check", "--json"),
    "cover-check-primes.json": ("cover", "--check", "--primes", "2,3,5,23,47,59", "--json"),
    "cover-g-7.json": ("cover", "--case", "g", "--prime", "7", "--json"),
    "certify-22.json": ("certify", "--genus", "22", "--json"),
    "certify-24.txt": ("certify", "--genus", "24"),
    "certify-24.json": ("certify", "--genus", "24", "--json"),
    "attained-300.json": ("attained", "--max", "300", "--json"),
    "catalog.json": ("catalog", "--json"),
    "measure-2-2-3-5-order-28.txt": ("measure", "2,2,3,5", "--order", "28"),
    "measure-g1p2-2.json": ("measure", "g1p2,2", "--json"),
}


def first_difference(expected, actual):
    """None, or where actual first departs from expected: the line, the
    column and a few characters of each from there."""
    pairs = zip_longest(expected.splitlines(True), actual.splitlines(True), fillvalue="")
    for lineno, (want, got) in enumerate(pairs, start=1):
        if want != got:
            col = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                       min(len(want), len(got)))
            return (f"line {lineno} column {col + 1}: expected {want[col:col + 60]!r},"
                    f" got {got[col:col + 60]!r}")
    return None


def test_golden_files_listed():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_stdout_matches_golden(capsys, name):
    assert main(list(GOLDEN[name])) == 0
    actual = capsys.readouterr().out
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    difference = first_difference(expected, actual)
    assert difference is None, f"{name}: {difference}"
