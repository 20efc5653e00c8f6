"""Run one surfbound CLI command with spans around each layer's public calls.

    python3 perfbench/trace_child.py SPANS_FILE OP_ID -- CLI_ARGS...

Wraps the public functions and methods listed in TARGETS wherever they are
looked up (the defining module, every surfbound module that imported them by
name, and the class for methods), then calls `surfbound.cli.main`.  Spans are
kept in memory and written to SPANS_FILE as JSON when the command ends:

    {"op": OP_ID, "spans": [[name, start, end, parent, info, error], ...]}

`parent` is the index of the enclosing span or -1, `info` a per-call number
(see TARGETS), `error` the name of an exception that left the call or null.
The process exits with the command's exit code.  Nothing under src/ changes.
"""

import functools
import importlib
import json
import sys
import time


def _result_true(args, result):
    return 1 if result else 0


def _result_count(args, result):
    # search_ske returns an int (count), a list (all) or a tuple/None (first)
    if isinstance(result, int):
        return result
    if isinstance(result, list):
        return len(result)
    return 0 if result is None else 1


def _closure_size(args, result):
    return len(args[0].elements)


def _snf_cells(args, result):
    return len(args[0]) * args[1]


# (span name, module, attribute or Class.attribute, info extractor)
TARGETS = (
    ("signatures.table", "surfbound.signatures", "signature_table", None),
    ("signatures.measure_class", "surfbound.signatures", "measure_class", None),
    ("signatures.kernel_genus", "surfbound.signatures", "kernel_genus", None),
    ("signatures.abelianization", "surfbound.signatures", "abelianization", None),
    ("groups.construct", "surfbound.groups", "construct", None),
    ("groups.closure", "surfbound.groups", "PermutationGroup.__init__", _closure_size),
    ("groups.generates", "surfbound.groups", "PermutationGroup.generates", _result_true),
    ("groups.generates", "surfbound.groups", "CyclicGroup.generates", _result_true),
    ("groups.generates", "surfbound.groups", "DihedralGroup.generates", _result_true),
    ("ske.search", "surfbound.ske", "search_ske", _result_count),
    ("ske.verify", "surfbound.ske", "verify_ske", None),
    ("ske.verify_certificate", "surfbound.ske", "verify_certificate", None),
    ("ske.dihedral_witness", "surfbound.ske", "dihedral_witness_ske", None),
    ("ske.to_dict", "surfbound.ske", "SkeCertificate.to_dict", None),
    ("ske.from_dict", "surfbound.ske", "SkeCertificate.from_dict", None),
    ("covers.presentation", "surfbound.covers", "kernel_presentation", None),
    ("covers.action", "surfbound.covers", "homology_action", None),
    ("covers.hyperplanes", "surfbound.covers", "invariant_hyperplanes", _result_true),
    ("covers.build_cover", "surfbound.covers", "build_cover", None),
    ("covers.verify_cover", "surfbound.covers", "verify_cover_certificate", None),
    ("covers.quotient", "surfbound.covers", "quotient_ske_from_cover", None),
    ("covers.case_certificate", "surfbound.covers", "case_certificate", None),
    ("covers.check_cases", "surfbound.covers", "check_cover_cases", None),
    ("linalg.snf", "surfbound.linalg", "smith_normal_form", _snf_cells),
    ("linalg.cokernel", "surfbound.linalg", "cokernel_invariants", None),
    ("linalg.matmul", "surfbound.linalg", "mat_mul_mod", None),
    ("linalg.rref", "surfbound.linalg", "rref_mod", None),
    ("linalg.nullspace", "surfbound.linalg", "nullspace_mod", None),
    ("linalg.invert", "surfbound.linalg", "invert_mod", None),
    ("bounds.constants", "surfbound.bounds", "bound_constants", None),
    ("bounds.discharge", "surfbound.bounds", "discharge_prime", None),
    ("bounds.attained", "surfbound.bounds", "attained_genera", None),
    ("bounds.certify", "surfbound.bounds", "certify_genus", None),
    ("bounds.verify_genus", "surfbound.bounds", "verify_genus_certificate", None),
    ("cli.main", "surfbound.cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, info):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = type(exc).__name__
                stack.pop()
                raise
            span[2] = clock()
            stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return wrapper

    def install(self):
        """Patch every target where it is defined and wherever it was imported."""
        for module_name in sorted({t[1] for t in TARGETS}):
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "surfbound"]
        for name, module_name, attr, info in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, staticmethod):
                    setattr(cls, method, staticmethod(self.wrap(name, raw.__func__, info)))
                else:
                    setattr(cls, method, self.wrap(name, raw, info))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_child.py SPANS_FILE OP_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_file, op_id, cli_args = argv[0], argv[1], argv[3:]
    import surfbound.cli

    tracer = Tracer()
    tracer.install()
    try:
        return surfbound.cli.main(cli_args)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"op": op_id, "spans": tracer.spans}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
