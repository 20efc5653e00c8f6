"""Pure arithmetic of the benchmark: self times, layer totals, percentiles.

A span is [name, start, end, parent, info, error] as trace_child.py writes
it; `name` is "<layer>.<call>".  Nothing here starts a process or reads the
clock, so the tests can feed it synthetic spans.
"""

from collections import Counter

LAYERS = ("signatures", "groups", "ske", "covers", "linalg", "bounds", "cli")

# exceptions that carry a mathematical answer ("no such cover", "no such
# kernel"); they leave a layer by design and are not errors
ANSWER_EXCEPTIONS = frozenset({"NotInvariant", "NonIntegralGenus"})


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Duration of each span minus the durations of its direct children.

    Spans of one process nest strictly, so the self times of all spans add
    up to the total duration of the root spans.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def summarize(spans):
    """Per-span-name totals of one operation's spans, as a Counter.

    Keys: ("self", name), ("calls", name), ("info", name), ("errors", layer),
    ("leaves",) for `groups.generates` calls under a search, and ("root",)
    for the summed duration of the root spans.
    """
    totals = Counter()
    selfs = self_times(spans)
    in_search = [False] * len(spans)
    for i, (name, start, end, parent, info, error) in enumerate(spans):
        in_search[i] = name == "ske.search" or (parent >= 0 and in_search[parent])
        totals[("self", name)] += selfs[i]
        totals[("calls", name)] += 1
        if info is not None:
            totals[("info", name)] += info
        if name == "groups.generates" and in_search[i]:
            totals[("leaves",)] += 1
        if parent < 0:
            totals[("root",)] += end - start
        if error is not None and error not in ANSWER_EXCEPTIONS:
            if parent < 0 or layer_of(spans[parent][0]) != layer_of(name):
                totals[("errors", layer_of(name))] += 1
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def _self(t, *names):
    return sum(t[("self", n)] for n in names)


def _layer_self(t, layer):
    return sum(v for k, v in t.items() if k[0] == "self" and layer_of(k[1]) == layer)


# (metric, unit, better, value from the pass totals); counts and ratios of
# counts repeat exactly from run to run, times do not
PER_LAYER = [
    ("signatures.table_loads", "count", "lower", lambda t: t[("calls", "signatures.table")]),
    ("signatures.table_s", "s", "lower", lambda t: _self(t, "signatures.table")),
    ("groups.generates_calls", "count", "lower", lambda t: t[("calls", "groups.generates")]),
    ("groups.generates_s", "s", "lower", lambda t: _self(t, "groups.generates")),
    ("groups.generates_true_ratio", "ratio", "higher",
     lambda t: _ratio(t[("info", "groups.generates")], t[("calls", "groups.generates")])),
    ("groups.construct_calls", "count", "lower", lambda t: t[("calls", "groups.construct")]),
    ("groups.construct_s", "s", "lower", lambda t: _self(t, "groups.construct", "groups.closure")),
    ("groups.elements_built", "count", "lower", lambda t: t[("info", "groups.closure")]),
    ("ske.search_calls", "count", "lower", lambda t: t[("calls", "ske.search")]),
    ("ske.search_s", "s", "lower", lambda t: _self(t, "ske.search")),
    ("ske.leaves_checked", "count", "lower", lambda t: t[("leaves",)]),
    ("ske.solutions", "count", "higher", lambda t: t[("info", "ske.search")]),
    ("ske.solution_ratio", "ratio", "higher",
     lambda t: _ratio(t[("info", "ske.search")], t[("leaves",)])),
    ("ske.verify_calls", "count", "lower", lambda t: t[("calls", "ske.verify")]),
    ("ske.verify_s", "s", "lower", lambda t: _self(t, "ske.verify", "ske.verify_certificate")),
    ("ske.to_dict_s", "s", "lower", lambda t: _self(t, "ske.to_dict")),
    ("covers.presentation_calls", "count", "lower", lambda t: t[("calls", "covers.presentation")]),
    ("covers.presentation_s", "s", "lower", lambda t: _self(t, "covers.presentation")),
    ("covers.action_calls", "count", "lower", lambda t: t[("calls", "covers.action")]),
    ("covers.action_s", "s", "lower", lambda t: _self(t, "covers.action")),
    ("covers.hyperplanes_s", "s", "lower", lambda t: _self(t, "covers.hyperplanes")),
    ("covers.lift_ratio", "ratio", "higher",
     lambda t: _ratio(t[("info", "covers.hyperplanes")], t[("calls", "covers.hyperplanes")])),
    ("covers.quotient_s", "s", "lower", lambda t: _self(t, "covers.quotient")),
    ("linalg.snf_calls", "count", "lower", lambda t: t[("calls", "linalg.snf")]),
    ("linalg.snf_s", "s", "lower", lambda t: _self(t, "linalg.snf")),
    ("linalg.snf_cells", "count", "lower", lambda t: t[("info", "linalg.snf")]),
    ("linalg.matmul_calls", "count", "lower", lambda t: t[("calls", "linalg.matmul")]),
    ("linalg.matmul_s", "s", "lower", lambda t: _self(t, "linalg.matmul")),
    ("bounds.discharge_calls", "count", "lower", lambda t: t[("calls", "bounds.discharge")]),
    ("bounds.discharge_s", "s", "lower", lambda t: _self(t, "bounds.discharge")),
    ("bounds.certify_s", "s", "lower", lambda t: _self(t, "bounds.certify")),
    ("bounds.verify_genus_s", "s", "lower", lambda t: _self(t, "bounds.verify_genus")),
    ("cli.stdout_bytes", "bytes", "lower", lambda t: t[("stdout_bytes",)]),
    ("process.gap_s", "s", "lower", lambda t: t[("op_wall",)] - t[("root",)]),
]
PER_LAYER += [(f"{layer}.self_s", "s", "lower", lambda t, layer=layer: _layer_self(t, layer))
              for layer in LAYERS]
PER_LAYER += [(f"{layer}.errors", "count", "lower", lambda t, layer=layer: t[("errors", layer)])
              for layer in LAYERS]

EXACT_UNITS = frozenset({"count", "ratio", "bytes"})


def per_layer_values(totals):
    """Every per-layer metric of one traced pass, by name."""
    return {name: fn(totals) for name, unit, better, fn in PER_LAYER}


def tail_percentile(samples, min_beyond=10):
    """Highest whole percentile above the median with >= min_beyond samples beyond it.

    Nearest-rank percentile: the P-th percentile of n sorted samples is the
    sample at rank ceil(P*n/100), and n - rank samples lie beyond it.
    Returns (percentile, value, beyond) or None when no percentile above the
    50th has enough samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 50, -1):
        rank = -(-pct * n // 100)
        if n - rank >= min_beyond:
            return pct, xs[rank - 1], n - rank
    return None
