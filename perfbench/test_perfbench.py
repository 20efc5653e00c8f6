"""Tests of the benchmark's own arithmetic, answer checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

ROOT = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=-1, info=None, error=None):
    return [name, start, end, parent, info, error]


# cli.main [0, 10]
#   bounds.certify [1, 7]
#     ske.search [2, 6]
#       groups.generates [3, 4]  True
#       groups.generates [4, 5]  False
#   groups.construct [8, 9]  ValueError escapes into cli
SPANS = [
    span("cli.main", 0.0, 10.0),
    span("bounds.certify", 1.0, 7.0, 0),
    span("ske.search", 2.0, 6.0, 1, info=1),
    span("groups.generates", 3.0, 4.0, 2, info=1),
    span("groups.generates", 4.0, 5.0, 2, info=0),
    span("groups.construct", 8.0, 9.0, 0, info=6, error="ValueError"),
]


def test_self_times_subtract_direct_children_only():
    assert metrics.self_times(SPANS) == [10 - 6 - 1, 6 - 4, 4 - 2, 1.0, 1.0, 1.0]


def test_layer_self_times_add_up_to_the_root_span():
    totals = metrics.summarize(SPANS)
    totals[("op_wall",)] = 10.5
    totals[("stdout_bytes",)] = 7
    values = metrics.per_layer_values(totals)
    layers = sum(values[f"{layer}.self_s"] for layer in metrics.LAYERS)
    assert layers == 10.0
    assert values["process.gap_s"] == 0.5
    assert values["cli.self_s"] == 3.0
    assert values["bounds.certify_s"] == 2.0
    assert values["groups.self_s"] == 3.0
    assert values["groups.generates_calls"] == 2
    assert values["groups.generates_true_ratio"] == 0.5
    assert values["ske.leaves_checked"] == 2
    assert values["ske.solutions"] == 1
    assert values["ske.solution_ratio"] == 0.5
    assert values["cli.stdout_bytes"] == 7
    assert values["groups.errors"] == 1
    assert values["cli.errors"] == 0


def test_errors_count_only_exceptions_that_leave_the_layer():
    spans = [
        span("cli.main", 0.0, 5.0),
        span("covers.build_cover", 1.0, 4.0, 0, error="RuntimeError"),
        span("covers.action", 1.5, 3.0, 1, error="RuntimeError"),
        span("linalg.snf", 2.0, 2.5, 2, error="ZeroDivisionError"),
        span("covers.build_cover", 4.0, 4.5, 0, error="NotInvariant"),
    ]
    totals = metrics.summarize(spans)
    assert totals[("errors", "covers")] == 1
    assert totals[("errors", "linalg")] == 1
    assert totals[("errors", "cli")] == 0


def test_ratios_without_attempts_are_zero():
    values = metrics.per_layer_values(metrics.summarize([span("cli.main", 0.0, 1.0)]))
    assert values["ske.solution_ratio"] == 0.0
    assert values["covers.lift_ratio"] == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 55)]  # 54 samples
    pct, value, beyond = metrics.tail_percentile(samples)
    assert (pct, beyond) == (81, 10)
    assert value == 44.0
    assert sum(1 for s in samples if s > value) == 10
    # p82 needs 56 samples: rank 46 of 55 would leave only 9 beyond
    assert metrics.tail_percentile(samples + [55.0])[0] == 81
    assert metrics.tail_percentile(samples + [55.0, 56.0])[0] == 82


def test_tail_percentile_is_left_out_below_twenty_one_samples():
    assert metrics.tail_percentile([1.0] * 20) is None
    assert metrics.tail_percentile([]) is None
    assert metrics.tail_percentile([1.0] * 21)[0] == 52


def _search_payload(count):
    return json.dumps({"command": "ske-search", "count": count, "found": count > 0}).encode()


def test_answer_check_rejects_a_wrong_count():
    check = workloads.check_search(1440)
    assert check(0, _search_payload(1440)) is None
    assert "count" in check(0, _search_payload(1439))


def test_answer_check_rejects_a_wrong_exit_code():
    check = workloads.check_search(1440)
    assert "exit code 3" in check(3, _search_payload(1440))
    assert "exit code" in workloads.check_verified("cover")(1, b'{"ok": false}')


def test_answer_check_rejects_a_wrong_bound_and_missing_fields():
    good = {"certificate": {"genus": 24, "bound": 92, "attained": True,
                            "discharge": {"complete": True}},
            "lower_bound_only": False}
    check = workloads.check_certify(24)
    assert check(0, json.dumps(good).encode()) is None
    good["certificate"]["bound"] = 96
    assert "bound" in check(0, json.dumps(good).encode())
    assert "missing" in check(0, b"{}")
    assert "JSON" in check(0, b"certificate ok")


def test_every_workload_operation_is_checked():
    ladder = [b"{}"] * len(workloads.LADDER)
    units = workloads.catalog_units() + workloads.search_units() + workloads.cover_units(ladder)
    ops = [op for unit in units for op in unit]
    assert len(ops) == 55 + 6 + 20
    # wall_s sums per-operation medians, keyed by name
    assert len({op.name for op in ops}) == len(ops)
    assert all(callable(op.check) for op in ops)
    assert all("--workers" not in op.argv for op in ops)


def test_traced_command_prints_what_the_plain_command_prints(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["measure", "2,3,7", "--order", "84", "--json"]
    plain = subprocess.run([sys.executable, "-c",
                            "import sys; from surfbound.cli import main; sys.exit(main())", *argv],
                           capture_output=True, env=env, check=True)
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(ROOT / "perfbench" / "trace_child.py"),
                             str(spans_file), "op7", "--", *argv],
                            capture_output=True, env=env, check=True)
    assert traced.stdout == plain.stdout
    data = json.loads(spans_file.read_text())
    assert data["op"] == "op7"
    names = [s[0] for s in data["spans"]]
    assert names[0] == "cli.main" and data["spans"][0][3] == -1
    # measure_class is imported into cli by name; the cli's lookup is traced
    assert "signatures.measure_class" in names
    assert "signatures.kernel_genus" in names
