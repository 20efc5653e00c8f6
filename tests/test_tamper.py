"""Field tampering of certificates the CLI prints.

Each case changes one field of a printed certificate, at any depth, or
deletes it, or makes two or three such changes at once at disjoint paths,
and feeds the result to `ske verify` in-process.  A change that leaves the
canonical JSON as it was is skipped; every other one must be refused with
exit 1, 2 or 3 and a one-line reason, never a traceback.
"""

import contextlib
import io
import json
import random
from itertools import combinations

import pytest

from surfbound.cli import main

# command, and the key of its JSON output that holds the certificate
SOURCES = {
    "ske": (("ske", "search", "--signature", "2,3,7",
             "--group", "perm:7:0,5,6,3,4,1,2:3,0,4,1,5,2,6"), "certificate"),
    "cover": (("cover", "--case", "g", "--prime", "7"), "cover"),
    "genus22": (("certify", "--genus", "22"), "certificate"),
    "genus24": (("certify", "--genus", "24"), "certificate"),
}


class _Delete:
    def __repr__(self):
        return "<deleted>"


DELETE = _Delete()
VALUES = (None, True, False, 0, -1, 1, 2, 10 ** 30, -10 ** 30, 1.5, "7", "x", "",
          [], [1], {}, {"a": 1}, DELETE)
SAMPLES = 100
MULTI_SAMPLES = 120

# changes each of which the verifiers accepted before they compared every
# recorded field as canonical JSON: 1 or 0 for a boolean, a covector entry
# 10**30 = 1 (mod 7), a discharge ledger 0 or {} read as null, witness
# routes that are not route names, and {} or "" for an empty list
ACCEPTED_BEFORE = {
    "fact-one-for-true": ("genus24", ("discharge", "entries", 0, "facts", "all_below_p"), 1),
    "fact-zero-for-false": ("genus24", ("discharge", "entries", 1, "facts", "case_a_lifts"), 0),
    "fact-true-for-one": ("genus24", ("discharge", "entries", 0, "facts", "denominators", 0),
                          True),
    "entry-ok-one": ("genus24", ("discharge", "entries", 0, "ok"), 1),
    "complete-one": ("genus24", ("discharge", "complete"), 1),
    "attained-one": ("genus24", ("attained",), 1),
    "attained-zero": ("genus22", ("attained",), 0),
    "covered-empty-string": ("genus24", ("discharge", "entries", 0, "bounds_covered"), ""),
    "covered-object": ("genus24", ("discharge", "entries", 1, "bounds_covered"), {}),
    "covector-0-unreduced": ("cover", ("covector", 0), 10 ** 30),
    "covector-1-unreduced": ("cover", ("covector", 1), 10 ** 30),
    "discharge-zero": ("genus22", ("discharge",), 0),
    "discharge-object": ("genus22", ("discharge",), {}),
    "route-empty": ("genus22", ("witnesses", 1, "route"), ""),
    "route-zero": ("genus22", ("witnesses", 1, "route"), 0),
    "route-one": ("genus22", ("witnesses", 1, "route"), 1),
    "route-true": ("genus22", ("witnesses", 1, "route"), True),
    "route-negative": ("genus22", ("witnesses", 1, "route"), -10 ** 30),
    "route-object": ("genus22", ("witnesses", 1, "route"), {"a": 1}),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def certificates():
    certs = {}
    for name, (argv, key) in SOURCES.items():
        code, out, _ = run(argv + ("--json",))
        assert code == 0
        certs[name] = json.loads(out)[key]
    return certs


def paths(node, prefix=()):
    """Every dict key at any depth and the first three items of every list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:3])
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def tampered(cert, changes):
    """A copy of cert with each (path, value) of changes made.  No path is a
    prefix of another; every parent is found before anything changes, and
    list items are deleted last, highest index first, so no change moves the
    target of another."""
    doc = json.loads(json.dumps(cert))
    targets = []
    for path, value in changes:
        node = doc
        for key in path[:-1]:
            node = node[key]
        targets.append((node, path[-1], value))
    for node, key, value in targets:
        if value is not DELETE:
            node[key] = value
    deletes = [(node, key) for node, key, value in targets if value is DELETE]
    for node, key in sorted(deletes, key=lambda t: isinstance(t[1], int) and t[1],
                            reverse=True):
        del node[key]
    return doc


def canonical(doc):
    return json.dumps(doc, sort_keys=True)


def refusal(tmp_path, cert, changes):
    """None if `ske verify` refuses the tampered certificate properly, else
    what it did."""
    doc = tampered(cert, changes)
    if canonical(doc) == canonical(cert):
        return None
    file = tmp_path / "tampered.json"
    file.write_text(json.dumps(doc))
    code, out, err = run(("ske", "verify", str(file)))
    lines = (out + err).strip().splitlines()
    if code in (1, 2, 3) and len(lines) == 1 and "Traceback" not in out + err:
        return None
    shown = ", ".join(f"{path} = {value!r:.40}" for path, value in changes)
    return f"{shown}: exit {code}, {out + err!r:.200}"


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_sampled_single_field_changes_refused(certificates, tmp_path, source):
    cert = certificates[source]
    pairs = [(path, value) for path in paths(cert) for value in VALUES]
    rng = random.Random(f"tamper-{source}")
    failures = [r for change in rng.sample(pairs, SAMPLES)
                if (r := refusal(tmp_path, cert, [change])) is not None]
    assert failures == []


def disjoint(chosen):
    return not any(a[:len(b)] == b or b[:len(a)] == a for a, b in combinations(chosen, 2))


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_sampled_multi_field_changes_refused(certificates, tmp_path, source):
    cert = certificates[source]
    every_path = list(paths(cert))
    rng = random.Random(f"tamper-multi-{source}")
    failures = []
    for _ in range(MULTI_SAMPLES):
        chosen = rng.sample(every_path, rng.choice((2, 3)))
        while not disjoint(chosen):
            chosen = rng.sample(every_path, len(chosen))
        changes = [(path, rng.choice(VALUES)) for path in chosen]
        if (r := refusal(tmp_path, cert, changes)) is not None:
            failures.append(r)
    assert failures == []


@pytest.mark.parametrize("case", sorted(ACCEPTED_BEFORE))
def test_formerly_accepted_change_refused(certificates, tmp_path, case):
    source, path, value = ACCEPTED_BEFORE[case]
    cert = certificates[source]
    assert canonical(tampered(cert, [(path, value)])) != canonical(cert)
    assert refusal(tmp_path, cert, [(path, value)]) is None


# PSL(2,13) on the projective line over F_13, generated by x -> x+1 and
# x -> -1/x: an order-1092 action at genus 50 on (2,3,13), which is not an
# arithmetic signature, against the honest bound 196
PSL_2_13 = "perm:14:1,2,3,4,5,6,7,8,9,10,11,12,0,13:13,12,6,4,3,5,2,11,8,10,9,7,1,0"


def test_non_arithmetic_witness_refused(tmp_path):
    code, out, _ = run(("ske", "search", "--signature", "2,3,13", "--group", PSL_2_13, "--json"))
    assert code == 0
    witness = json.loads(out)["certificate"]
    code, out, _ = run(("certify", "--genus", "50", "--json"))
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["bound"] == 196
    cert["witnesses"].append(witness)
    cert["bound"] = 1092
    file = tmp_path / "forged.json"
    file.write_text(json.dumps(cert))
    assert run(("ske", "verify", str(file))) == (
        1, "verification failed: witnesses[1] has signature (2,3,13),"
           " not an arithmetic one\n", "")
