"""Compare the CLI's stdout, stderr and exit codes between this tree and another.

Usage: python3 tools/same_output.py OTHER_CHECKOUT

Runs each command below (the golden ones, certify piped into ske verify,
catalog, attained, cover, table, constants, measure, ske search, and the
FAILING and CAPPED commands, which each end in an error line and a nonzero
exit) as `python3 -m surfbound.cli ...` once against this tree's src/ and
once against OTHER_CHECKOUT/src/, with SURFBOUND_ORDER_CAP and
SURFBOUND_NODE_BUDGET removed from the environment.  A command's leading
NAME=value words set a variable for that command alone, as on a shell's
command line, so the CAPPED ones compare the cap refusals.  Each
`certify --genus g --json` output, and each first-mode `ske search ... --json`
output, is piped into `ske verify - --json` of the same tree, and the
TAMPERED documents, each a printed certificate with one field set, into
`ske verify -`, so refusals are compared as well as acceptances; a tree
whose printed document lacks a TAMPERED path runs nothing for it, and the
command differs, its stderr naming the path.  Prints every command whose exit
code, stdout or stderr differs, with the first line of stdout, else stderr,
where the two trees part, and exits 1 if any does, else 0.
Commands run one at a time, each once per tree; the whole list takes about
a minute on two CPUs.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent.parent
LADDER = HERE / "tests" / "data" / "cover-ladder.jsonl"
CASES = "abcdefg"
GENERA = [*range(2, 25), 48, 60, 84, 108]
MEASURES = [("2,3,7", "--order", "84"), ("2,3,8",), ("g2",), ("g1p2,2",), ("2,2",)]


def _workload_searches():
    # the six searches of the benchmark's search workload, read from
    # perfbench/workloads.py by path, as argv tails in that workload's form
    path = HERE / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(sig, group, "--mode", "count", "--json", *(("--dedup",) if dedup else ()))
            for sig, group, dedup, _ in workloads.SEARCHES]


# the benchmark's searches, then one in first mode, a search without periods
# on a non-abelian group, a search each way whose kernel genus is not an
# integer, then a witness and the count up to conjugation on groups built
# through the numbered names, the aliases and the metacyclic builder:
# (signature, group, options...)
SEARCHES = _workload_searches() + [
    ("2,3,8", "GL23"),
    ("g2", "S3", "--mode", "count", "--json"),
    ("2,2,2,2,2", "dihedral:1"),
    ("2,2,2,2,2", "dihedral:1", "--mode", "count"),
] + [(sig, group, *options) for sig, group in [
    ("2,2,2,3", "dihedral:6"),
    ("2,2,3,3", "A4"),
    ("2,2,2,2,2", "V4"),
    ("2,2,2,2,2", "klein_four"),
    ("2,2,3,3", "C6"),
    ("2,2,3,3", "cyclic:6"),
    ("2,2,2,3", "D6"),
    ("3,3,4", "S4"),
    ("g2", "S3"),
] for options in (("--mode", "first", "--json"), ("--mode", "count", "--dedup", "--json"))]


# commands that must fail the same way in both trees: usage errors, signatures
# that are not admissible, a prime past the primality test's range, a resource
# cap and a missing certificate file
FAILING = [
    ("measure", "2,2"),
    ("measure", "x"),
    ("measure", "2,3,7", "--order", "0"),
    ("ske", "search", "--signature", "2,2", "--group", "S3"),
    ("ske", "search", "--signature", "2,3,7", "--group", "Z9"),
    ("ske", "search", "--signature", "2,2,2,3", "--group", "dihedral:6", "--dedup"),
    ("ske", "search", "--signature", "2,3,7", "--group", "S7", "--mode", "all"),
    ("cover",),
    ("cover", "--case", "z", "--prime", "5"),
    ("cover", "--case", "a", "--prime", "9"),
    ("cover", "--case", "a", "--prime", "3400000000000000000000009"),
    ("cover", "--case", "f", "--prime", "1000000000039"),
    ("cover", "--case", "a", "--prime", "2", "--primes", "2"),
    ("cover", "--check", "--case", "a"),
    ("cover", "--check", "--primes", "4"),
    ("cover", "--check", "--primes", "2,,3"),
    ("certify", "--genus", "1"),
    ("certify", "--genus", "9" * 1001),
    ("attained", "--max", "2000000"),
    ("ske", "verify", "/nonexistent.json"),
]


CAPS = ("SURFBOUND_ORDER_CAP", "SURFBOUND_NODE_BUDGET")
SEARCH_A5 = ("ske", "search", "--signature", "2,5,5", "--group", "A5", "--mode", "count")
# each cap refused at start-up and by a search, then each cap hit
CAPPED = [(f"{name}={value}", *argv) for name in CAPS for value in ("abc", "0", "-3", "5_000")
          for argv in (("constants",), SEARCH_A5)] + [
    ("SURFBOUND_ORDER_CAP=100", "ske", "search", "--signature", "2,3,8", "--group", "S8",
     "--mode", "count"),
    ("SURFBOUND_NODE_BUDGET=5", "ske", "search", "--signature", "2,2,2,6", "--group", "S3*D11",
     "--mode", "count"),
]


class Tamper(NamedTuple):
    """The --json output of source, or its fed key, with the value at path
    set to value: a document `ske verify` must refuse."""

    source: tuple
    fed: str | None
    path: tuple
    value: object


class Frozen(dict):
    """A JSON object a Tamper can set, hashed by its canonical JSON."""

    def __hash__(self):
        return hash(json.dumps(self, sort_keys=True))


SEARCH_GL23 = ("ske", "search", "--signature", "2,3,8", "--group", "GL23", "--json")
SEARCH_G2_S3 = ("ske", "search", "--signature", "g2", "--group", "S3", "--mode", "first", "--json")
COVER_G7 = ("cover", "--case", "g", "--prime", "7", "--json")
CERTIFY_22 = ("certify", "--genus", "22", "--json")
CERTIFY_24 = ("certify", "--genus", "24", "--json")
WITNESS = ("witnesses", 1)
BIG = 10 ** 12 + 1
# (0; BIG, BIG, BIG) -> cyclic:BIG replays alone, but a cover of it must
# enumerate the group, past the order cap
CYCLIC_BASE = Frozen(type="ske", verifier_version="1",
                     signature={"genus": 0, "periods": [BIG] * 3}, group=f"cyclic:{BIG}",
                     group_order=BIG, images=[1, 1, BIG - 2], kernel_genus=(BIG - 1) // 2)
# one changed field each, in an epimorphism, in a cover and its base, and in
# the cover witness of a genus certificate, which also gains a key the rebuild
# lacks; one cover states its other invariant hyperplane, which no command
# prints, and one has a base that hits a resource cap; two keep every image's
# order and break only the long relation, one with periods (an image replaced
# by its inverse) and one without (a genus-2 tuple whose first commutator is a
# 3-cycle); the last seven state a derived value of the right type but the
# wrong value: a cover genus one too large (8 is right), at an attained genus
# a false attained flag and a false ledger entry, and one more than the
# right value in a group order (48), a cover group order (84), a genus bound
# (252) and the order of that genus certificate's cover witness (252)
TAMPERED = [
    Tamper(SEARCH_GL23, None, ("certificate", "kernel_genus"), 3),
    Tamper(SEARCH_GL23, None, ("certificate", "images", 0), tuple(range(8))),
    Tamper(SEARCH_GL23, None, ("certificate", "images", 1), (6, 4, 2, 0, 7, 5, 3, 1)),
    Tamper(SEARCH_G2_S3, None, ("certificate", "images"),
           ((1, 0, 2), (1, 2, 0), (0, 1, 2), (0, 1, 2))),
    Tamper(COVER_G7, "cover", ("base", "kernel_genus"), 3),
    Tamper(COVER_G7, "cover", ("base", "group"), "C6 * C2"),
    Tamper(COVER_G7, "cover", ("base", "verifier_version"), "2"),
    Tamper(COVER_G7, "cover", ("covector", 0), 2),
    Tamper(COVER_G7, "cover", ("covector",), (1, 2, 3, 1)),
    Tamper(COVER_G7, "cover", ("base",), CYCLIC_BASE),
    Tamper(CERTIFY_22, "certificate", (*WITNESS, "kernel_genus"), 21),
    Tamper(CERTIFY_22, "certificate", (*WITNESS, "group"), "S3*D11"),
    Tamper(CERTIFY_22, "certificate", (*WITNESS, "hurwitz"), True),
    Tamper(COVER_G7, "cover", ("cover_genus",), 9),
    Tamper(CERTIFY_24, "certificate", ("attained",), False),
    Tamper(CERTIFY_24, "certificate", ("discharge", "entries", 0, "ok"), False),
    Tamper(SEARCH_GL23, None, ("certificate", "group_order"), 49),
    Tamper(COVER_G7, "cover", ("cover_group_order",), 85),
    Tamper(CERTIFY_22, "certificate", ("bound",), 253),
    Tamper(CERTIFY_22, "certificate", (*WITNESS, "group_order"), 253),
]


def primes_below(n):
    return [p for p in range(2, n) if all(p % d for d in range(2, math.isqrt(p) + 1))]


# the commands whose stdout tests/test_golden.py pins (its GOLDEN table)
GOLDEN = [
    ("constants",),
    ("constants", "--json"),
    ("table", "--check", "--json"),
    ("cover", "--check"),
    ("cover", "--check", "--json"),
    ("cover", "--check", "--primes", "2,3,5,23,47,59", "--json"),
    ("cover", "--case", "g", "--prime", "7", "--json"),
    ("certify", "--genus", "22", "--json"),
    ("certify", "--genus", "24"),
    ("certify", "--genus", "24", "--json"),
    ("attained", "--max", "300", "--json"),
    ("catalog", "--json"),
    ("measure", "2,2,3,5", "--order", "28"),
    ("measure", "g1p2,2", "--json"),
]


def commands():
    """(argv, stdin) pairs; stdin is None, the number of a line of the ladder
    file, the argv whose stdout feeds this command in the same tree, or a
    Tamper of such an output."""
    out = [(argv, None) for argv in GOLDEN]
    for g in GENERA:
        certify = ("certify", "--genus", str(g), "--json")
        out += [(certify[:-1], None), (certify, None), (("ske", "verify", "-", "--json"), certify)]
    out += [(argv, None) for argv in [
        ("catalog",),
        ("catalog", "--json"),
        ("attained", "--max", "1000", "--json"),
        ("attained", "--max", "300"),
        ("cover", "--check"),
        ("cover", "--check", "--json"),
        ("cover", "--check", "--primes", ",".join(map(str, primes_below(400))), "--json"),
        ("table", "--check", "--json"),
        ("constants",),
        ("constants", "--json"),
    ]]
    out += [(("measure", *m, *fmt), None) for m in MEASURES for fmt in ((), ("--json",))]
    out.append((("table",), None))
    searches = [("ske", "search", "--signature", sig, "--group", group, *options)
                for sig, group, *options in SEARCHES]
    out += [(argv, None) for argv in searches]
    out += [(("ske", "verify", "-", "--json"), argv) for argv in searches
            if "--json" in argv and "count" not in argv]
    out += [(("cover", "--case", c, "--prime", str(p), "--json"), None)
            for c in CASES for p in primes_below(50)]
    # extensions of order 618 and 1,236
    out += [(("cover", "--case", c, "--prime", "103", "--json"), None) for c in "fg"]
    out += [(("ske", "verify", "-", "--json"), n)
            for n in range(1, len(LADDER.read_text().splitlines()) + 1)]
    out += [(argv, None) for argv in FAILING + CAPPED]
    out += [(("ske", "verify", "-"), tamper) for tamper in TAMPERED]
    return list(dict.fromkeys(out))


class Tree:
    """One checkout's CLI, each (argv, stdin) run once."""

    def __init__(self, root):
        self.root = root
        self.env = {k: v for k, v in os.environ.items() if k not in CAPS}
        self.env["PYTHONPATH"] = str(root / "src")
        self.seen = {}

    def run(self, argv, stdin=None):
        if isinstance(stdin, Tamper):
            doc = json.loads(self.run(stdin.source)[1])
            try:
                doc = node = doc[stdin.fed] if stdin.fed else doc
                for key in stdin.path[:-1]:
                    node = node[key]
                node[stdin.path[-1]] = stdin.value
            except (KeyError, IndexError, TypeError):
                # no exit code: the outcome of a run, even a refusal, differs
                return None, b"", f"no {_where(stdin)} in the printed document\n".encode()
            stdin = json.dumps(doc).encode()
        elif isinstance(stdin, tuple):
            stdin = self.run(stdin)[1]
        elif isinstance(stdin, int):
            stdin = LADDER.read_bytes().splitlines()[stdin - 1]
        key = (argv, stdin)
        if key not in self.seen:
            env = dict(self.env)
            while "=" in argv[0]:
                name, _, value = argv[0].partition("=")
                env[name], argv = value, argv[1:]
            proc = subprocess.run([sys.executable, "-m", "surfbound.cli", *argv], input=stdin,
                                  capture_output=True, env=env, cwd=self.root)
            self.seen[key] = proc.returncode, proc.stdout, proc.stderr
        return self.seen[key]


def _where(tamper):
    fed = [tamper.fed] if tamper.fed else []
    return "".join(f"[{key!r}]" for key in [*fed, *tamper.path])


def shown(argv, stdin):
    text = " ".join(argv)
    if isinstance(stdin, Tamper):
        return f"{' '.join(stdin.source)} | set {_where(stdin)} = {stdin.value!r} | {text}"
    if isinstance(stdin, tuple):
        return f"{' '.join(stdin)} | {text}"
    return text if stdin is None else f"{text} < ladder line {stdin}"


def first_difference(mine, theirs):
    """(stream, line here, line there) at the first line where stdout, else
    stderr, differs, a missing line None; None if only the exit codes do."""
    for stream, a, b in zip(("stdout", "stderr"), mine[1:], theirs[1:]):
        for x, y in zip_longest(a.splitlines(keepends=True), b.splitlines(keepends=True)):
            if x != y:
                return stream, x, y
    return None


def main(args):
    if len(args) != 1 or not (Path(args[0]) / "src" / "surfbound").is_dir():
        print("usage: python3 tools/same_output.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    here, there = Tree(HERE), Tree(Path(args[0]).resolve())
    todo = commands()
    differ = 0
    for argv, stdin in todo:
        mine, theirs = here.run(argv, stdin), there.run(argv, stdin)
        if mine != theirs or mine[0] is None:
            differ += 1
            print(f"DIFFERS: {shown(argv, stdin)} (exit {mine[0]} here, {theirs[0]} there)")
            if diff := first_difference(mine, theirs):
                stream, *lines = diff
                for side, line in zip(("here", "there"), lines):
                    text = "(no line)" if line is None else repr(line.decode(errors="replace"))
                    print(f"  {stream} {side}: {text:.200}")
    print(f"{len(todo)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
