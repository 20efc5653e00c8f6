"""Command line front end.

Subcommands expose the library layers one by one: the signature table and
its measure arithmetic, epimorphism search and certificate verification,
homology covers, and the per-genus bound certificates.  Every --json output
is canonical: keys sorted, compact separators, schema_version tagged, no
timestamps, so identical invocations are byte-identical.  The module imports
no surfbound layer at load time: each command imports the layers it runs, so
`table` and `constants` load only signatures (and bounds), a search loads
signatures, groups and ske, and only the cover commands and the genus
certificates that need a cover witness or a discharge ledger load covers and
linalg.

Exit codes: 0 success, 1 failed verification of a claimed certificate or
table row, 2 usage error (unparseable or out-of-domain input), 3 resource
cap hit.  Proven absence (no epimorphism, no invariant hyperplane) is a
mathematical answer, not an error: it prints "none" and exits 0.
"""

import argparse
import json
import os
import sys

SCHEMA_VERSION = "1"


class UsageError(Exception):
    pass


def _emit(args, payload, lines):
    if args.json:
        envelope = {"schema_version": SCHEMA_VERSION}
        envelope.update(payload)
        print(json.dumps(envelope, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def _parse_sig(text):
    from .signatures import parse_signature

    try:
        return parse_signature(text)
    except ValueError as exc:
        raise UsageError(f"bad signature {text!r}: {exc}")


def _construct(descriptor):
    from .groups import construct

    try:
        return construct(descriptor)
    except ValueError as exc:
        raise UsageError(f"bad group descriptor {descriptor!r}: {exc}")


def _abelian_text(inv):
    parts = ([f"Z^{inv.free_rank}"] if inv.free_rank else []) + [f"C{d}" for d in inv.torsion]
    return " x ".join(parts) if parts else "trivial"


def cmd_table(args):
    from .signatures import _ratio_text, signature_table

    try:
        entries = signature_table(path=args.data)
    except OSError as exc:
        raise UsageError(f"cannot read table: {exc}")
    except ValueError as exc:
        print(f"table data corrupt: {exc}", file=sys.stderr)
        return 1
    rows = []
    lines = []
    for entry in entries:
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
    _emit(args, payload, lines)
    return 0


def cmd_measure(args):
    from .signatures import (
        NonIntegralGenus,
        NotAdmissible,
        abelianization,
        kernel_genus,
        measure_class,
        render_pi,
        render_ratio,
    )

    sig = _parse_sig(args.signature)
    if args.order is not None and args.order < 1:
        raise UsageError(f"--order must be at least 1, got {args.order}")
    try:
        mc = measure_class(sig)
    except NotAdmissible as exc:
        raise UsageError(f"not admissible: {exc}")
    inv = abelianization(sig)
    payload = {
        "command": "measure",
        "signature": str(sig),
        "measure": render_pi(mc.mu_over_pi),
        "q": render_ratio(mc.q),
        "bound_ratio": render_ratio(mc.s_over_r),
        "abelianization": {"free_rank": inv.free_rank, "torsion": list(inv.torsion)},
    }
    lines = [
        f"signature      {sig}",
        f"measure        {render_pi(mc.mu_over_pi)}",
        f"genus ratio q  {render_ratio(mc.q)}",
        f"bound          {render_ratio(mc.s_over_r)}(g-1)",
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
    _emit(args, payload, lines)
    return 0


def cmd_constants(args):
    from .bounds import bound_constants

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
    _emit(args, payload, lines)
    return 0


def cmd_ske_search(args):
    from .groups import element_data
    from .signatures import NonIntegralGenus, NotAdmissible
    from .ske import search_ske, verify_ske

    sig = _parse_sig(args.signature)
    group = _construct(args.group)
    payload = {"command": "ske-search", "signature": str(sig),
               "group": group.descriptor, "mode": args.mode, "dedup": args.dedup}
    try:
        result = search_ske(sig, group, mode=args.mode, dedup=args.dedup)
    except NotAdmissible as exc:
        raise UsageError(f"not admissible: {exc}")
    except NonIntegralGenus as exc:
        # non-integral kernel genus rules out every epimorphism up front;
        # proven absence is a success, same as an exhausted search
        payload["found"] = False
        payload["reason"] = str(exc)
        if args.mode != "first":
            payload["count"] = 0
        _emit(args, payload, ["none", f"({exc})"])
        return 0
    if args.mode == "count":
        payload["count"] = result
        payload["found"] = result > 0
        _emit(args, payload, [f"count {result}"] if result else ["none"])
        return 0
    if args.mode == "first":
        if result is None:
            payload["found"] = False
            _emit(args, payload, ["none"])
            return 0
        cert = verify_ske(sig, group, result)
        payload["found"] = True
        payload["certificate"] = cert.to_dict()
        lines = [
            f"found epimorphism onto {group.descriptor} (order {group.order})",
            f"images {[element_data(x) for x in result]}",
            f"kernel genus {cert.kernel_genus}",
        ]
        _emit(args, payload, lines)
        return 0
    payload["count"] = len(result)
    payload["found"] = bool(result)
    payload["solutions"] = [[element_data(x) for x in sol] for sol in result]
    lines = [f"count {len(result)}"] if result else ["none"]
    lines.extend(str([element_data(x) for x in sol]) for sol in result)
    _emit(args, payload, lines)
    return 0


def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"not valid JSON: {exc}")


def cmd_ske_verify(args):
    data = _load_json(args.file)
    if not isinstance(data, dict):
        raise UsageError("certificate must be a JSON object")
    if "certificate" in data and "type" not in data:
        data = data["certificate"]
    kind = data.get("type")
    # only the module that defines the certificate type is imported
    if kind == "ske":
        from .ske import SkeCertificate as record, verify_certificate as verify
    elif kind == "cover":
        from .covers import CoverCertificate as record, verify_cover_certificate as verify
    elif kind == "genus":
        from .bounds import GenusCertificate as record, verify_genus_certificate as verify
    else:
        raise UsageError(f"unknown certificate type {kind!r}")
    try:
        cert = record.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed certificate: {exc!r}")
    try:
        verify(cert)
        if kind == "ske":
            summary = (f"ske {cert.signature} -> {cert.group_descriptor}"
                       f" (order {cert.group_order}, kernel genus {cert.kernel_genus})")
        elif kind == "cover":
            summary = (f"cover of {cert.base.signature} -> {cert.base.group_descriptor}"
                       f" mod {cert.prime}: genus {cert.cover_genus},"
                       f" order {cert.cover_group_order}")
        else:
            summary = f"genus {cert.genus}: bound {cert.bound}"
    except (ValueError, RuntimeError) as exc:
        payload = {"command": "ske-verify", "ok": False, "error": str(exc)}
        _emit(args, payload, [f"verification failed: {exc}"])
        return 1
    _emit(args, {"command": "ske-verify", "ok": True, "certificate_type": kind,
                 "summary": summary},
          [f"certificate ok: {summary}"])
    return 0


def cmd_cover(args):
    if args.check:
        if args.case is not None or args.prime is not None:
            raise UsageError("--check does not combine with --case/--prime")
        return _cover_check(args)
    if args.labels is not None or args.primes is not None:
        raise UsageError("--labels/--primes only apply with --check")
    if args.case is None or args.prime is None:
        raise UsageError("need --case and --prime (or --check)")
    return _cover_build(args)


def _cover_build(args):
    from .covers import (
        NotInvariant,
        build_cover,
        case_by_label,
        case_certificate,
        kernel_presentation,
        quotient_ske_from_cover,
    )
    from .signatures import is_prime

    try:
        case = case_by_label(args.case)
    except ValueError as exc:
        raise UsageError(str(exc))
    if not is_prime(args.prime):
        raise UsageError(f"--prime must be a prime number, got {args.prime}")
    base = case_certificate(case)
    pres = kernel_presentation(base)
    payload = {"command": "cover", "case": case.label, "prime": args.prime}
    try:
        cover = build_cover(base, args.prime, presentation=pres)
    except NotInvariant as exc:
        # the congruence condition fails at this prime: no hyperplane is
        # fixed, the cover does not exist, and that is the certified answer
        payload["found"] = False
        payload["reason"] = str(exc)
        _emit(args, payload, ["no invariant hyperplane", f"({exc})"])
        return 0
    quotient = quotient_ske_from_cover(cover, presentation=pres)
    payload["found"] = True
    payload["cover"] = cover.to_dict()
    payload["quotient"] = quotient.to_dict()
    lines = [
        f"case {case.label}: {case.signature} -> {case.group_descriptor}",
        f"prime {args.prime}: cover genus {cover.cover_genus},"
        f" group order {cover.cover_group_order}",
        f"quotient epimorphism verified onto order {quotient.group_order}",
    ]
    _emit(args, payload, lines)
    return 0


def _cover_check(args):
    from .covers import check_cover_cases
    from .signatures import is_prime

    labels = tuple(args.labels) if args.labels else None
    primes = None
    if args.primes:
        primes = tuple(_parse_int_list(args.primes))
        for p in primes:
            if not is_prime(p):
                raise UsageError(f"--primes entries must be prime, got {p}")
    try:
        reports = check_cover_cases(labels=labels, primes=primes)
    except ValueError as exc:
        raise UsageError(str(exc))
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
    _emit(args, {"command": "cover", "check": True, "reports": reports,
                 "ok": all_ok}, lines)
    return 0 if all_ok else 1


def cmd_certify(args):
    from .bounds import WitnessSearchFailed, certify_genus

    if args.genus < 2:
        raise UsageError("genus must be at least 2")
    try:
        cert = certify_genus(args.genus)
    except WitnessSearchFailed as exc:
        print(f"witness search failed: {exc}", file=sys.stderr)
        return 1
    payload = {"command": "certify", "certificate": cert.to_dict(),
               "lower_bound_only": not cert.attained}
    lines = [f"genus {cert.genus}", f"bound {cert.bound}"]
    if cert.attained:
        lines.append("attained exactly: bound equals 4(g-1) and the discharge"
                      " report is " +
                      ("complete" if cert.discharge.complete else "INCOMPLETE"))
    else:
        lines.append("lower bound only: no exactness ledger at this genus")
    lines.append("witnesses:")
    for w in cert.witnesses:
        lines.append(f"  {w.route:<16} order {w.certificate.group_order:>6}"
                     f"  {w.certificate.signature} -> {w.certificate.group_descriptor}")
    _emit(args, payload, lines)
    return 0


def cmd_attained(args):
    from .bounds import attained_genera

    genera = attained_genera(args.max)
    rows = []
    lines = []
    for a in genera:
        rows.append({
            "genus": a.genus,
            "prime": a.prime,
            "bound": a.bound,
            "complete": a.complete,
            "discharge": a.discharge.to_dict(),
        })
        lines.append(f"genus {a.genus:>4}  prime {a.prime:>4}  bound {a.bound:>5}"
                     f"  discharge {'complete' if a.complete else 'INCOMPLETE'}")
    if not genera:
        lines.append(f"no attained genera up to {args.max}")
    _emit(args, {"command": "attained", "max": args.max,
                 "genera": rows}, lines)
    return 0


def _parse_int_list(text):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise UsageError(f"expected comma separated integers, got {text!r}")
    if not values:
        raise UsageError("empty integer list")
    return values


def cmd_catalog(args):
    from .bounds import CATALOG_RANGE, certify_genus

    genera = _parse_int_list(args.genera) if args.genera else list(CATALOG_RANGE)
    certs = []
    lines = []
    for g in genera:
        if g < 2:
            raise UsageError("genus must be at least 2")
        cert = certify_genus(g)
        certs.append(cert.to_dict())
        best = max(cert.witnesses, key=lambda w: w.certificate.group_order)
        lines.append(
            f"g={g:>3}  bound {cert.bound:>5}  via {best.route}"
            f" {best.certificate.signature} -> {best.certificate.group_descriptor}"
        )
    _emit(args, {"command": "catalog", "certificates": certs}, lines)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="surfbound",
        description="certified automorphism bounds for arithmetic surface kernels",
    )
    parser.add_argument("--order-cap", type=int, default=None,
                        help="cap on constructed group orders")
    parser.add_argument("--node-budget", type=int, default=None,
                        help="cap on search tree nodes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print the admissible signature table")
    p.add_argument("--check", action="store_true",
                   help="recompute every row's measure and compare")
    p.add_argument("--data", default=None, metavar="PATH",
                   help="load the table from a file instead of the package data")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("measure", help="exact invariants of one signature")
    p.add_argument("signature", help="e.g. 2,3,7 or g1p2,2 or g2")
    p.add_argument("--order", type=int, default=None,
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
    p.add_argument("--mode", choices=("first", "all", "count"), default="first")
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
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--check", action="store_true",
                   help="compare liftable primes against the predictions")
    p.add_argument("--labels", default=None, help="restrict --check, e.g. adg")
    p.add_argument("--primes", default=None,
                   help="restrict --check, comma separated")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("certify", help="bound certificate for one genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("attained", help="genera where 4(g-1) is exact")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_attained)

    p = sub.add_parser("catalog", help="certificates for the catalogued genera")
    p.add_argument("--genera", default=None, help="comma separated, default 2..23")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    return parser


def _usage_errors():
    # a command loads only the layers it runs; an except clause evaluates
    # this only once an exception reaches it
    from .signatures import BeyondWitnessRange

    return UsageError, BeyondWitnessRange


def _cap_errors():
    # evaluated only once an exception other than a usage error reaches
    # main; these two come only from commands that already loaded both layers
    from .groups import OrderCapExceeded
    from .ske import SearchSpaceTooLarge

    return OrderCapExceeded, SearchSpaceTooLarge


_ENV_FLAGS = (("order_cap", "SURFBOUND_ORDER_CAP"),
              ("node_budget", "SURFBOUND_NODE_BUDGET"))


def _check_caps():
    # the library reads each cap with int() wherever it needs it; a bad
    # value is a usage error here rather than a traceback or a misnamed
    # defect there
    for _, name in _ENV_FLAGS:
        value = os.environ.get(name, "")
        if value and not (value.isascii() and value.isdigit() and int(value) > 0):
            raise UsageError(f"{name} must be a positive decimal integer, got {value!r:.60}")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    saved = {}
    for attr, name in _ENV_FLAGS:
        value = getattr(args, attr)
        if value is not None:
            saved[name] = os.environ.get(name)
            os.environ[name] = str(value)
    try:
        _check_caps()
        return args.func(args)
    except _usage_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _cap_errors() as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    finally:
        for name, old in saved.items():
            if old is None:
                del os.environ[name]
            else:
                os.environ[name] = old


if __name__ == "__main__":
    sys.exit(main())
