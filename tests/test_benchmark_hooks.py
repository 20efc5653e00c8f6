"""The benchmark in perfbench/ reaches into the package by name: its tracer
resolves TARGETS with getattr, and its cover workload builds a ladder of
certificates through the covers API.  A rename or signature change under
src/ would break it without failing any other test."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_cover_ladder_builds():
    workloads = load("workloads")
    certificates = workloads.build_ladder()
    assert len(certificates) == len(workloads.LADDER)
