"""The benchmark in perfbench/ reaches into the package by name: its tracer
resolves TARGETS with getattr, its search workload checks the counts it
records, and its cover workload builds a ladder of certificates through the
covers API, whose bytes data/cover-ladder.jsonl pins.  A rename, a signature
change or a wrong count under src/ would otherwise first show as failed
benchmark operations."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LADDER_FILE = Path(__file__).resolve().parent / "data" / "cover-ladder.jsonl"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    for _, module_name, attr, _ in load("trace_child").TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_search_counts_as_recorded():
    from surfbound.groups import construct
    from surfbound.signatures import parse_signature
    from surfbound.ske import search_ske

    for sig, group, dedup, count in load("workloads").SEARCHES:
        found = search_ske(parse_signature(sig), construct(group), mode="count", dedup=dedup)
        assert found == count, (sig, group, dedup)


def test_cover_ladder_builds():
    # the certificates the cover workload replays, one per rung, byte for byte
    workloads = load("workloads")
    certificates = workloads.build_ladder()
    assert len(certificates) == len(workloads.LADDER)
    assert certificates == LADDER_FILE.read_bytes().splitlines()
