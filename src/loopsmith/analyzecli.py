"""The validate and analyze commands.

validate checks that files hold loop tables, and analyze prints the
structural report of analyze_table.  Their code sits apart from cli.py so
that halfautos and checktheorem do not compile it (README, "Start-up"):
cli.main imports this module for these two commands only.  It must not
import loopsmith.cli: under ``python -m loopsmith.cli`` that module runs
as __main__, and importing it by name would compile cli.py a second time.
"""

from __future__ import annotations

import json
import sys
import time

from .errors import EXIT_INPUT, EXIT_OK, EXIT_PROPERTY, LoopFileError
from .table import load_loop


def _consistent(flags) -> bool:
    """The four implications between the analyze flags; a self-check."""
    return all(flags[b] for a, b in (("loop", "quasigroup"), ("associative", "moufang"),
                                     ("moufang", "diassociative"), ("automorphic", "left_automorphic"))
               if flags[a])


def analyze_table(table, name=None, max_half_order=20) -> dict:
    """One-stop structural summary of a loop, as analyze --json prints it;
    half_census is None when skipped."""
    from . import closure as cl
    from .innermaps import is_automorphic, is_left_automorphic

    t0 = time.perf_counter()
    flags = {
        # a LoopTable exists only for a validated loop
        "quasigroup": True,
        "loop": True,
        "commutative": table.is_commutative(),
        "associative": table.is_associative(),
        "diassociative": table.is_diassociative(),
        "moufang": table.is_moufang(),
        "left_automorphic": is_left_automorphic(table),
        "automorphic": is_automorphic(table),
    }
    t1 = time.perf_counter()
    subloop_orders = {
        "nucleus": len(cl.nucleus(table)),
        "commutant": len(cl.commutant(table)),
        "center": len(cl.center(table)),
        "commutator_subloop": len(cl.commutator_subloop(table)),
        "associator_subloop": len(cl.associator_subloop(table)),
    }
    t2 = time.perf_counter()
    nilpotency_class = cl.commutative_nilpotency_class(table)
    t3 = time.perf_counter()
    census = None
    if table.order <= max_half_order:
        from .halfmorph import half_census

        census = {kind.value: count for kind, count in half_census(table).counts}
        census["total"] = sum(census.values())
    return {
        "name": name or table.name or "loop",
        "order": table.order,
        "flags": flags,
        "subloop_orders": subloop_orders,
        "nilpotency_class": nilpotency_class,
        "half_census": census,
        "half_census_skipped": census is None,
        "elapsed": {"flags": t1 - t0, "subloops": t2 - t1, "nilpotency": t3 - t2,
                    "half_census": time.perf_counter() - t3},
    }


def _print_analysis(report):
    print("%s: order %d" % (report["name"], report["order"]))
    for key, value in sorted(report["flags"].items()):
        print("  %-18s %s" % (key, value))
    for key, value in sorted(report["subloop_orders"].items()):
        print("  |%s| = %d" % (key, value))
    print("  nilpotency_class   %s" % (report["nilpotency_class"],))
    census = report["half_census"]
    if census is None:
        print("  half-morphisms     skipped (order above threshold)")
    else:
        print("  half-morphisms     total=%d iso=%d anti=%d both=%d proper=%d" % (
            census["total"], census["isomorphism"], census["anti-isomorphism"],
            census["both"], census["proper-half"],
        ))
    print("  elapsed            %s" % " ".join(
        "%s=%.3fs" % (k, v) for k, v in sorted(report["elapsed"].items())))


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.paths:
        try:
            entry = load_loop(path, normalize=args.normalize)
        except LoopFileError as exc:
            if exc.stage == "table":
                print("%s: INVALID: %s" % (path, exc))
                if exc.report is not None:
                    for kind, witness in exc.report.violations:
                        print("  violation: %s %r" % (kind, witness))
                status = max(status, EXIT_PROPERTY)
            else:
                print("%s: unreadable: %s" % (path, exc))
                status = max(status, EXIT_INPUT)
            continue
        if args.json:
            # the table was constructed, so it passed validation
            print(json.dumps({
                "name": entry.key,
                "order": entry.table.order,
                "is_quasigroup": True,
                "has_identity": True,
                "is_loop": True,
            }, sort_keys=True))
        else:
            print("%s: valid loop of order %d (%s)" % (path, entry.table.order, entry.key))
    return status


def cmd_analyze(args) -> int:
    status = EXIT_OK
    reports = []
    for path in args.paths:
        try:
            entry = load_loop(path, normalize=args.normalize)
        except LoopFileError as exc:
            print("%s: %s" % (path, exc), file=sys.stderr)
            return EXIT_PROPERTY if exc.stage == "table" else EXIT_INPUT
        report = analyze_table(entry.table, name=entry.key, max_half_order=args.max_half_order)
        reports.append(report)
        if not _consistent(report["flags"]):
            print("%s: inconsistent property flags %r" % (entry.key, report["flags"]), file=sys.stderr)
            status = max(status, EXIT_PROPERTY)
    if args.json:
        print(json.dumps(reports[0] if len(reports) == 1 else reports, sort_keys=True, indent=2))
    else:
        for report in reports:
            _print_analysis(report)
    return status
