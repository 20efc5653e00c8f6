"""End-to-end benchmark of the surfbound CLI, with a traced per-layer mode.

    python3 perfbench/run.py --workload {catalog,search,cover} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from src/.
Each operation is a fresh `surfbound` process (interpreter start, imports and
table load included), run one at a time as a closed loop from this process.
The seed fixes the order of operations.  A pass runs the whole operation
list once in a seeded order.

--trace 0 runs one whole pass, then keeps going through fresh seeded orders
with the units that still fit in S seconds, and prints the end-to-end
metrics.  --trace 1 runs
one untraced pass, then whole traced passes (see trace_child.py) until S
seconds are up, and prints the per-layer metrics.
Every operation's exit code and answer are checked (workloads.py).  The last
stdout line is the result object; the line before it holds the details
(seed, Python version, nproc, sample counts, op_tail_s, tracing overhead).
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import metrics
import workloads

CLI_STUB = "import sys; from surfbound.cli import main; sys.exit(main())"
TRACE_CHILD = Path(__file__).resolve().parent / "trace_child.py"
CAP_VARIABLES = ("SURFBOUND_ORDER_CAP", "SURFBOUND_NODE_BUDGET")
SETUP_PROBES = 12
OUT_DIR = ".perfbench-out"

WORKLOADS = ("catalog", "search", "cover")


@dataclass
class OpResult:
    op: workloads.Op
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    spans_file: Path = None


def run_process(cmd, env, cwd, stdin):
    """Run cmd to completion; returns (rc, stdout, stderr, wall_s, maxrss_kb)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks = {}

    def drain(name, stream):
        with stream:
            chunks[name] = stream.read()

    def feed():
        with proc.stdin:
            try:
                proc.stdin.write(stdin)
            except BrokenPipeError:
                pass

    threads = [threading.Thread(target=feed),
               threading.Thread(target=drain, args=("out", proc.stdout)),
               threading.Thread(target=drain, args=("err", proc.stderr))]
    for t in threads:
        t.start()
    # wait4 rather than proc.wait() so the child's own peak RSS is known
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in threads:
        t.join()
    return proc.returncode, chunks["out"], chunks["err"], wall, usage.ru_maxrss


class Runner:
    def __init__(self, root):
        self.root = root
        self.out_dir = root / OUT_DIR
        self.env = {k: v for k, v in os.environ.items() if k not in CAP_VARIABLES}
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.op_counter = 0

    def run_op(self, op, stdin, traced):
        self.op_counter += 1
        spans_file = None
        if traced:
            spans_file = self.out_dir / f"op{self.op_counter}.json"
            cmd = [sys.executable, str(TRACE_CHILD), str(spans_file), op.name, "--", *op.argv]
        else:
            cmd = [sys.executable, "-c", CLI_STUB, *op.argv]
        rc, out, err, wall, rss = run_process(cmd, self.env, self.root, stdin)
        return OpResult(op, rc, out, err, wall, rss, spans_file)

    def run_unit(self, unit, traced):
        results = []
        for op in unit:
            stdin = results[-1].stdout if op.stdin_from_previous else op.stdin
            results.append(self.run_op(op, stdin, traced))
        return results


def check_results(results, defects):
    failed = 0
    for r in results:
        defect = r.op.check(r.rc, r.stdout)
        if defect is not None:
            failed += 1
            tail = r.stderr.decode(errors="replace").strip().splitlines()[-1:]
            defects.append(f"{r.op.name}: {defect}" + (f" [{tail[0]}]" if tail else ""))
    return failed


def trace_totals(results, defects):
    """Pass totals of the traced operations; removes their span files."""
    totals = Counter()
    for r in results:
        try:
            with open(r.spans_file) as fh:
                spans = json.load(fh)["spans"]
            r.spans_file.unlink()
        except (OSError, ValueError, KeyError) as exc:
            defects.append(f"{r.op.name}: no spans ({exc!r})")
            spans = []
        totals.update(metrics.summarize(spans))
        totals[("stdout_bytes",)] += len(r.stdout)
        totals[("op_wall",)] += r.wall_s
    return totals


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(per_pass, defects):
    """Per-layer metrics over traced passes: counts from the first pass (they
    must repeat in every pass), times as the median over passes."""
    values = [metrics.per_layer_values(t) for t in per_pass]
    out = {}
    for name, unit, _, _ in metrics.PER_LAYER:
        series = [v[name] for v in values]
        if unit in metrics.EXACT_UNITS:
            if len(set(series)) != 1:
                defects.append(f"{name} differs between traced passes: {series}")
            out[name] = metric(series[0], unit)
        else:
            out[name] = metric(float(statistics.median(series)), unit)
    return out


def plain_loop(runner, units, rng, seconds):
    """Untraced closed loop: one whole pass, then more units in fresh
    seeded orders while each still fits in `seconds`, judged by its own
    latest time.  A set-up probe runs between units every seconds/SETUP_PROBES
    seconds.  Returns (probes, results, number of complete passes)."""
    probes, results, passes = [], [], 0
    latest = {}  # unit -> wall time of its latest run
    start = next_probe = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        order = list(units)
        rng.shuffle(order)
        ran = 0
        for unit in order:
            now = time.perf_counter()
            if passes and now - start + latest[unit] > seconds:
                continue
            if now >= next_probe:
                probes.append(runner.run_op(workloads.SETUP_OP, b"", False))
                next_probe = time.perf_counter() + seconds / SETUP_PROBES
            done = runner.run_unit(unit, False)
            latest[unit] = sum(r.wall_s for r in done)
            results += done
            ran += 1
        if ran == len(order):
            passes += 1
        elif ran == 0:
            break
    return probes, results, passes


def trace_loop(runner, units, rng, seconds):
    """One untraced pass, then whole traced passes until `seconds` have
    passed (at least one).  Returns the passes, each a list of results;
    passes[0] is the untraced one."""
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        order = list(units)
        rng.shuffle(order)
        passes.append([r for unit in order for r in runner.run_unit(unit, bool(passes))])
    return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "surfbound" / "cli.py").is_file():
        print(f"no surfbound sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    runner = Runner(root)
    rng = random.Random(args.seed)
    defects = []
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "python": platform.python_version(), "nproc": os.cpu_count()}

    if args.workload == "cover":
        start = time.perf_counter()
        try:
            ladder = workloads.build_ladder()
        except Exception as exc:  # any defect of the program under test
            defects.append(f"cover ladder: {exc!r}")
            ladder = [b""] * len(workloads.LADDER)
        detail["ladder_prep_s"] = time.perf_counter() - start
        units = workloads.cover_units(ladder)
    elif args.workload == "search":
        units = workloads.search_units()
    else:
        units = workloads.catalog_units()

    runner.out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            probes, passes = [], trace_loop(runner, units, rng, args.seconds)
            results = [r for p in passes for r in p]
            complete = len(passes)
            per_pass = [trace_totals(p, defects) for p in passes[1:]]
        else:
            probes, results, complete = plain_loop(runner, units, rng, args.seconds)
    finally:
        shutil.rmtree(runner.out_dir, ignore_errors=True)

    checked = probes + results
    failed = check_results(checked, defects)
    plain = [r for r in results if r.spans_file is None]
    tail = metrics.tail_percentile([r.wall_s for r in plain])
    detail.update({
        "ops_per_pass": sum(len(u) for u in units),
        "op_samples": len(plain),
        "complete_passes": complete,
        "setup_probes": len(probes),
        "op_tail_s": None if tail is None else
        {"percentile": tail[0], "value": tail[1], "beyond": tail[2], "samples": len(plain)},
        "fail_ratio": failed / len(checked),
    })

    if args.trace:
        out = per_layer_metrics(per_pass, defects)
        untraced_wall = sum(r.wall_s for r in passes[0])
        traced_wall = statistics.median(t[("op_wall",)] for t in per_pass)
        detail.update({
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "tracing_overhead_s": traced_wall - untraced_wall,
        })
    else:
        by_op = {}
        for r in plain:
            by_op.setdefault(r.op.name, []).append(r.wall_s)
        op_medians = [statistics.median(v) for v in by_op.values()]
        out = {
            "setup_s": metric(statistics.median(r.wall_s for r in probes), "s"),
            "wall_s": metric(sum(op_medians), "s"),
            "op_p50_s": metric(statistics.median(op_medians), "s"),
            "peak_rss_mb": metric(max(r.maxrss_kb for r in plain) / 1024, "MB"),
        }

    for line in defects:
        print(f"defect: {line}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not defects, "attempted": len(checked), "failed": failed,
                      "metrics": out}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
