"""Command line front end.

Subcommands expose the library layers one by one: the signature table and
its measure arithmetic, epimorphism search and certificate verification,
homology covers, and the per-genus bound certificates.  Every --json output
is canonical: keys sorted, compact separators, schema_version tagged, no
timestamps, so identical invocations are byte-identical.  The module imports
no surfbound layer at load time: each command imports the layers it runs, so
`table`, `measure` and `constants` load only signatures, a search loads
signatures, groups and ske, and only the cover commands and the genus
certificates that need a cover witness or a discharge ledger load covers and
linalg.

`ske verify` takes a certificate bare or in the --json output of `certify`
or a first-mode `ske search`, reads it by the schema its type names
(CERTIFICATES), and passes it exactly when its rebuild prints the same
canonical JSON, every key of that output around it included.  A
corrupt packaged table fails the verifier, not the certificate: it ends
`ske verify` as it ends every other reader of the table, with exit 1 and
"table data corrupt".

A command only computes its answer, the --json payload and the lines of its
text form.  main prints one of them and exits 1 if the payload says
"ok": false (a failed `ske verify`, a disagreeing `cover --check`), else 0.
Proven absence (no epimorphism, no invariant hyperplane) is a mathematical
answer, not an error: it prints "none" and exits 0.  main's one table of
failures (_failures) turns an exception into one stderr line and an exit
code, 2 for a usage error (unparseable or out-of-domain input):

    UsageError, NotDecimal, BeyondWitnessRange  2  error: ...
    NotAdmissible                               2  error: not admissible: ...
    TableCorrupt                                1  table data corrupt: ...
    WitnessSearchFailed                         1  witness search failed: ...
    OrderCapExceeded, SearchSpaceTooLarge       3  resource cap: ...

signatures.decimal reads every integer given as text, in one grammar;
main reads each resource cap with signatures.resource_cap, as the library does.

Any other exception is a defect and propagates with its traceback.  A stdout
whose reader went away ends quietly with exit 1, with no traceback.
"""

import argparse
import json
import os
import sys

SCHEMA_VERSION = "1"
# the largest attained --max: the command holds every ledger up to it and
# prints about 11 MB there
MAX_ATTAINED = 10 ** 6
# ske verify refuses JSON nested deeper than this: the commands print at
# most 8 levels (catalog and attained --json), a certificate at most 7
MAX_NESTING = 100


class UsageError(Exception):
    pass


def _emit(as_json, payload, lines):
    if as_json:
        envelope = {"schema_version": SCHEMA_VERSION}
        envelope.update(payload)
        print(json.dumps(envelope, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def _parse_sig(text):
    from .signatures import MAX_DIGITS, parse_signature

    # each number is bounded by decimal, the whole signature here, since
    # the lcm of its periods grows with their digits together
    if sum(map(str.isdigit, text)) > MAX_DIGITS:
        raise UsageError(f"signature has more than {MAX_DIGITS} digits")
    try:
        return parse_signature(text)
    except ValueError as exc:
        raise UsageError(f"bad signature {text!r:.60}: {exc}")


def _construct(descriptor):
    from .groups import construct

    try:
        return construct(descriptor)
    except ValueError as exc:
        raise UsageError(f"bad group descriptor {descriptor!r:.60}: {exc}")


def _abelian_text(inv):
    parts = ([f"Z^{inv.free_rank}"] if inv.free_rank else []) + [f"C{d}" for d in inv.torsion]
    return " x ".join(parts) if parts else "trivial"


def cmd_table(args):
    from .signatures import _ratio_text, signature_table

    rows = []
    lines = []
    for entry in signature_table():
        ratio = _ratio_text(*entry.sr_pair)
        rows.append({
            "signature": str(entry.signature),
            "genus": entry.signature.genus,
            "periods": list(entry.signature.periods),
            "bound_ratio": ratio,
            "flag": entry.arithmeticity_flag,
        })
        lines.append(f"{str(entry.signature):<16} bound {ratio}(g-1)"
                     f"  {entry.arithmeticity_flag}")
    payload = {"command": "table", "rows": rows}
    if args.check:
        # the loader already recomputed every row and raised on a mismatch
        payload["checked"] = len(rows)
        payload["consistent"] = True
        lines.append(f"{len(rows)} signatures verified")
    return payload, lines


def cmd_measure(args):
    from .signatures import (NonIntegralGenus, _ratio_text, abelianization, kernel_genus,
                             measure_class, render_pi)

    sig = _parse_sig(args.signature)
    if args.order is not None and args.order < 1:
        raise UsageError(f"--order must be at least 1, got {args.order}")
    mc = measure_class(sig)
    inv = abelianization(sig)
    q, bound_ratio = (_ratio_text(*x.as_integer_ratio()) for x in (mc.q, mc.s_over_r))
    payload = {
        "command": "measure",
        "signature": str(sig),
        "measure": render_pi(mc.mu_over_pi),
        "q": q,
        "bound_ratio": bound_ratio,
        "abelianization": {"free_rank": inv.free_rank, "torsion": list(inv.torsion)},
    }
    lines = [
        f"signature      {sig}",
        f"measure        {render_pi(mc.mu_over_pi)}",
        f"genus ratio q  {q}",
        f"bound          {bound_ratio}(g-1)",
        f"abelianized    {_abelian_text(inv)}",
    ]
    if args.order is not None:
        try:
            g = kernel_genus(sig, args.order)
        except NonIntegralGenus as exc:
            # a torsion-free kernel of this index does not exist; that is
            # an answer, not an error
            payload["kernel_genus"] = {"order": args.order, "genus": None,
                                       "reason": str(exc)}
            lines.append(f"kernel genus   none at order {args.order} ({exc})")
        else:
            payload["kernel_genus"] = {"order": args.order, "genus": g}
            lines.append(f"kernel genus   {g} at order {args.order}")
    return payload, lines


def cmd_constants(args):
    from .signatures import bound_constants

    c = bound_constants()
    payload = {
        "command": "constants",
        "table_rows": c.table_size,
        "s_max": c.s_max,
        "r_lcm": c.r_lcm,
        "primes": list(c.primes),
        "s_ranking": list(c.s_ranking),
    }
    lines = [
        f"table rows  {c.table_size}",
        f"s max       {c.s_max}",
        f"r lcm       {c.r_lcm}",
        f"primes      {' '.join(map(str, c.primes))}",
        f"s ranking   {' '.join(map(str, c.s_ranking))}",
    ]
    return payload, lines


def cmd_ske_search(args):
    from .groups import element_data
    from .signatures import NonIntegralGenus
    from .ske import search_ske, verify_ske

    if args.dedup and args.mode != "count":
        raise UsageError("--dedup only applies with --mode count")
    sig = _parse_sig(args.signature)
    group = _construct(args.group)
    payload = _search_payload(sig, group.descriptor, args.mode, args.dedup)
    try:
        result = search_ske(sig, group, mode=args.mode, dedup=args.dedup)
    except NonIntegralGenus as exc:
        # non-integral kernel genus rules out every epimorphism up front;
        # proven absence is a success, same as an exhausted search
        payload.update(found=False, reason=str(exc))
        if args.mode != "first":
            payload["count"] = 0
        return payload, ["none", f"({exc})"]
    if args.mode == "count":
        payload.update(count=result, found=result > 0)
        return payload, [f"count {result}"] if result else ["none"]
    if result is None:
        payload["found"] = False
        return payload, ["none"]
    cert = verify_ske(sig, group, result)
    lines = [
        f"found epimorphism onto {group.descriptor} (order {group.order})",
        f"images {[element_data(x) for x in result]}",
        f"kernel genus {cert.kernel_genus}",
    ]
    return _search_payload(sig, group.descriptor, args.mode, args.dedup, cert.to_dict()), lines


def _search_payload(sig, descriptor, mode, dedup, doc=None):
    # what ske search --json prints before its answer, and all of it when a
    # first-mode search found the certificate printed as doc
    payload = {"command": "ske-search", "signature": str(sig), "group": descriptor,
               "mode": mode, "dedup": dedup}
    return payload if doc is None else dict(payload, found=True, certificate=doc)


def _certify_payload(cert, doc):
    return {"command": "certify", "certificate": doc, "lower_bound_only": not cert.attained}


def _envelope(kind, cert, doc):
    # what prints cert, as doc, under "certificate": certify a genus
    # certificate, a first-mode search an epimorphism, and no command a cover
    payload = (_certify_payload(cert, doc) if kind == "genus" else
               _search_payload(cert.signature, cert.group.descriptor, "first", False, doc)
               if kind == "ske" else {"certificate": doc})
    return dict(payload, schema_version=SCHEMA_VERSION)


def _load_json(path):
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError and the int digit limit are ValueErrors
        raise UsageError(f"not valid JSON: {exc}")
    # measured level by level, so no later reader recurses past the bound
    depth, level = 0, [data]
    while nested := [x for x in level if isinstance(x, (dict, list))]:
        depth += 1
        level = [v for x in nested for v in (x.values() if isinstance(x, dict) else x)]
    if depth > MAX_NESTING:
        raise UsageError(f"JSON nested {depth} levels deep, more than {MAX_NESTING}")
    return data


# each certificate type: the module that defines it, its schema there, its
# verifier, which rebuilds the record from the inputs the schema decodes,
# and the summary of a verified one
CERTIFICATES = {
    "ske": ("ske", "SKE", "verify_certificate",
            lambda c: f"ske {c.signature} -> {c.group.descriptor}"
                      f" (order {c.group_order}, kernel genus {c.kernel_genus})"),
    "cover": ("covers", "COVER", "verify_cover_certificate",
              lambda c: f"cover of {c.base.signature} -> {c.base.group.descriptor}"
                        f" mod {c.prime}: genus {c.cover_genus}, order {c.cover_group_order}"),
    "genus": ("bounds", "GENUS", "verify_genus_certificate",
              lambda c: f"genus {c.genus}: bound {c.bound}"),
}


def cmd_ske_verify(args):
    from .signatures import TableCorrupt
    from .ske import check_recorded, read, replay

    data = _load_json(args.file)
    envelope = None
    if isinstance(data, dict) and "certificate" in data and "type" not in data:
        envelope, data = data, data["certificate"]
    if not isinstance(data, dict):
        raise UsageError("certificate must be a JSON object")
    kind = data.get("type")
    if type(kind) is not str or kind not in CERTIFICATES:
        raise UsageError(f"unknown certificate type {kind!r}")
    # only the module that defines the certificate type is imported
    name, schema, verify, describe = CERTIFICATES[kind]
    module = __import__(f"{__package__}.{name}", fromlist=[verify])
    try:
        cert = read(getattr(module, schema), data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed certificate: {exc!r}")
    try:
        # the document read is compared whole with the rebuild, then an
        # envelope by each other key it has
        cert = replay(getattr(module, verify), cert, data)
        if envelope is not None:
            # around the document read, which is the rebuild's now
            rebuilt = _envelope(kind, cert, data)
            check_recorded(envelope, {key: rebuilt[key] for key in envelope if key in rebuilt})
        summary = describe(cert)
    except TableCorrupt:
        # the verifier's own data failed, not the certificate: main reports it
        raise
    except ValueError as exc:
        # a resource cap reaches main, as in every other command
        return ({"command": "ske-verify", "ok": False, "error": str(exc)},
                [f"verification failed: {exc}"])
    return ({"command": "ske-verify", "ok": True, "certificate_type": kind, "summary": summary},
            [f"certificate ok: {summary}"])


def cmd_cover(args):
    if args.check:
        if args.case is not None or args.prime is not None:
            raise UsageError("--check does not combine with --case/--prime")
        return _cover_check(args)
    if args.primes is not None:
        raise UsageError("--primes only applies with --check")
    if args.case is None or args.prime is None:
        raise UsageError("need --case and --prime (or --check)")
    return _cover_build(args)


def _cover_build(args):
    from .covers import NotInvariant, case_by_label, case_certificate, lift
    from .signatures import is_prime

    try:
        case = case_by_label(args.case)
    except ValueError as exc:
        raise UsageError(str(exc))
    if not is_prime(args.prime):
        raise UsageError(f"--prime must be a prime number, got {args.prime}")
    payload = {"command": "cover", "case": case.label, "prime": args.prime}
    try:
        cover, quotient = lift(case_certificate(case), args.prime)
    except NotInvariant as exc:
        # the congruence condition fails at this prime: no hyperplane is
        # fixed, the cover does not exist, and that is the certified answer
        payload["found"] = False
        payload["reason"] = str(exc)
        return payload, ["no invariant hyperplane", f"({exc})"]
    payload["found"] = True
    payload["cover"] = cover.to_dict()
    payload["quotient"] = quotient.to_dict()
    lines = [
        f"case {case.label}: {case.signature} -> {case.group_descriptor}",
        f"prime {args.prime}: cover genus {cover.cover_genus},"
        f" group order {cover.cover_group_order}",
        f"quotient epimorphism verified onto order {quotient.group_order}",
    ]
    return payload, lines


def _cover_check(args):
    from .covers import check_cover_cases
    from .signatures import decimal, is_prime

    primes = None
    if args.primes is not None:
        parts = args.primes.split(",")
        if "" in parts:
            raise UsageError(f"expected comma separated integers, got {args.primes!r:.60}")
        primes = tuple(decimal("--primes entry", part) for part in parts)
        for p in primes:
            if not is_prime(p):
                raise UsageError(f"--primes entries must be prime, got {p}")
    reports = check_cover_cases(primes=primes)
    lines = []
    all_ok = True
    for rep in reports:
        all_ok = all_ok and rep["match"]
        lifted = ",".join(map(str, rep["with_hyperplane"])) or "-"
        lines.append(
            f"case {rep['case']} {rep['signature']} -> {rep['group']}:"
            f" lifts at {lifted}"
            f" ({'matches' if rep['match'] else 'DISAGREES WITH'} {rep['condition']})"
        )
    return {"command": "cover", "check": True, "reports": reports, "ok": all_ok}, lines


def cmd_certify(args):
    from .bounds import certify_genus

    if args.genus < 2:
        raise UsageError("genus must be at least 2")
    cert = certify_genus(args.genus)
    lines = [f"genus {cert.genus}", f"bound {cert.bound}"]
    # the builder refuses an attained genus whose ledger is incomplete
    lines.append("attained exactly: bound equals 4(g-1) and the discharge report is complete"
                 if cert.attained else "lower bound only: no exactness ledger at this genus")
    lines.append("witnesses:")
    for w in cert.witnesses:
        lines.append(f"  order {w.group_order:>6}  {w.signature} -> {w.group.descriptor}")
    return _certify_payload(cert, cert.to_dict()), lines


def cmd_attained(args):
    from .bounds import attained_genera

    if args.max > MAX_ATTAINED:
        raise UsageError(f"--max must be at most {MAX_ATTAINED}, got {args.max}")
    genera = attained_genera(args.max)
    rows = [{"genus": d.genus, "prime": d.prime, "bound": d.bound, "complete": d.complete,
             "discharge": d.to_dict()} for d in genera]
    lines = [f"genus {d.genus:>4}  prime {d.prime:>4}  bound {d.bound:>5}"
             f"  discharge {'complete' if d.complete else 'INCOMPLETE'}" for d in genera]
    if not genera:
        lines.append(f"no attained genera up to {args.max}")
    return {"command": "attained", "max": args.max, "genera": rows}, lines


def _catalog_row(g):
    # a certificate holds its witness groups: only its JSON and its line
    # outlive this call, so the catalog holds one genus's groups at a time.
    # Holding all 22 at once, as small_genus_catalog does, raised the peak
    # RSS of `catalog --json` by 0.74 to 0.85 MB (ru_maxrss, about 16.1 ->
    # 17.0 MB on Python 3.11.7), so this loop stays apart from it
    from .bounds import certify_genus

    cert = certify_genus(g)
    best = max(cert.witnesses, key=lambda w: w.group_order)
    return cert.to_dict(), (f"g={g:>3}  bound {cert.bound:>5}"
                            f"  via {best.signature} -> {best.group.descriptor}")


def cmd_catalog(args):
    from .bounds import CATALOG_ROUTES

    certs, lines = zip(*map(_catalog_row, CATALOG_ROUTES))
    return {"command": "catalog", "certificates": list(certs)}, list(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="surfbound",
        description="certified automorphism bounds for arithmetic surface kernels;"
                    " the environment variables SURFBOUND_ORDER_CAP and"
                    " SURFBOUND_NODE_BUDGET cap group orders and search nodes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print the admissible signature table")
    p.add_argument("--check", action="store_true",
                   help="recompute every row's measure and compare")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("measure", help="exact invariants of one signature")
    p.add_argument("signature", help="e.g. 2,3,7 or g1p2,2 or g2")
    p.add_argument("--order", default=None,
                   help="also compute the kernel genus at this group order")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("constants", help="invariants of the whole table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_constants)

    ske = sub.add_parser("ske", help="surface-kernel epimorphisms")
    skesub = ske.add_subparsers(dest="ske_command", required=True)

    p = skesub.add_parser("search", help="search for epimorphisms")
    p.add_argument("--signature", required=True)
    p.add_argument("--group", required=True,
                   help="group descriptor, e.g. GL23 or dihedral:6")
    p.add_argument("--mode", choices=("first", "count"), default="first")
    p.add_argument("--dedup", action="store_true",
                   help="deduplicate by simultaneous conjugation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ske_search)

    p = skesub.add_parser("verify", help="verify a certificate file (- for stdin)")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ske_verify)

    p = sub.add_parser("cover", help="mod-p homology covers of genus-2 actions")
    p.add_argument("--case", default=None, help="case label a-g")
    p.add_argument("--prime", default=None)
    p.add_argument("--check", action="store_true",
                   help="compare liftable primes against the predictions")
    p.add_argument("--primes", default=None,
                   help="restrict --check, comma separated")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("certify", help="bound certificate for one genus")
    p.add_argument("--genus", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("attained", help="genera where 4(g-1) is exact")
    p.add_argument("--max", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_attained)

    p = sub.add_parser("catalog", help="certificates for genera 2..23")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    return parser


def _failures():
    # (exception classes, exit code, stderr prefix) for each failure main
    # reports; read only once an exception reaches main, so a command that
    # succeeds loads no layer for it
    from .bounds import WitnessSearchFailed
    from .groups import OrderCapExceeded
    from .signatures import BeyondWitnessRange, NotAdmissible, NotDecimal, TableCorrupt
    from .ske import SearchSpaceTooLarge

    return (((UsageError, NotDecimal, BeyondWitnessRange), 2, "error"),
            (NotAdmissible, 2, "error: not admissible"),
            (TableCorrupt, 1, "table data corrupt"),
            (WitnessSearchFailed, 1, "witness search failed"),
            ((OrderCapExceeded, SearchSpaceTooLarge), 3, "resource cap"))


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        from .signatures import CAPS, decimal, resource_cap

        # every cap is read before any command runs, whether or not it uses it
        for name in CAPS:
            resource_cap(name)
        for option in ("genus", "max", "order", "prime"):
            if getattr(args, option, None) is not None:
                setattr(args, option, decimal(f"--{option}", getattr(args, option)))
        payload, lines = args.func(args)
        _emit(args.json, payload, lines)
        # a reader that went away shows here, not in the flush at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the flush at exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError:
        # print only once out of the handler: its traceback holds the frames,
        # and so the memory, that ran out
        pass
    except Exception as exc:
        for classes, code, prefix in _failures():
            if isinstance(exc, classes):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise
    else:
        return 0 if payload.get("ok", True) else 1
    print("resource cap: out of memory", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
