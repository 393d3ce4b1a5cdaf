"""Command-line interface.

Commands: validate, analyze, halfautos, checktheorem.  Inputs are .loop
files; a bare catalog key (like Q1 or Z6) is accepted wherever a path
does not exist on disk.  Exit codes: 0 success, 1 a property or theorem
failed, 2 unreadable input or bad usage, 3 an internal self-check failed
or an unexpected ValueError escaped (a bug or corrupted state, not a
property of the input), 141 standard output was closed before all of it
was written, as when ``loopsmith halfautos Q1 | head -1`` stops reading
(128 plus SIGPIPE, what a shell reports for a program that signal ends).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import InternalCheckError, LoopError, LoopFileError
from .loopfile import parse_loop_file

# Module boundaries follow the commands, because every run compiles the
# modules it imports (README, "Start-up").  Each command imports the other
# modules it runs where it runs them: validate on a file loads none of
# them, analyze without the census loads closure and innermaps, and
# catalog loads only for a catalog key or --catalog.  tests/test_records.py
# pins each command's module set.
#
# validate is unused here; it stays bound because the benchmark's test of
# its tracer (loopbench/test_loopbench.py) checks that this binding is wrapped
from .table import validate  # noqa: F401

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141


def _load(path, normalize=False):
    """Read a .loop file, or fall back to a catalog key."""
    if not os.path.exists(path):
        from . import catalog as cat

        if path in cat.catalog_keys():
            return cat.builtin(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LoopFileError("cannot read %s: %s" % (path, exc)) from exc
    return parse_loop_file(text, normalize=normalize)


# -- analyze ----------------------------------------------------------


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


# -- commands ---------------------------------------------------------


def cmd_validate(args) -> int:
    status = EXIT_OK
    for path in args.paths:
        try:
            entry = _load(path, normalize=args.normalize)
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
            entry = _load(path, normalize=args.normalize)
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


def cmd_halfautos(args) -> int:
    from .halfmorph import (HalfKind, classify, enumerate_half_automorphisms,
                            half_maps_form_group_check, orbit_maps, weighted_maps)

    if args.limit is not None and args.limit < 1:
        print("--limit must be at least 1, got %d" % args.limit, file=sys.stderr)
        return EXIT_INPUT
    try:
        entry = _load(args.path, normalize=args.normalize)
    except LoopFileError as exc:
        print("%s: %s" % (args.path, exc), file=sys.stderr)
        return EXIT_PROPERTY if exc.stage == "table" else EXIT_INPUT
    enum = enumerate_half_automorphisms(entry.table, limit=args.limit)
    census = {kind.value: 0 for kind in HalfKind}
    listing = []
    # the kind and witnesses read only the masks, which alpha o s shares with s
    for s, alphas in weighted_maps(enum):
        cls = classify(s)
        census[cls.kind.value] += 1 + len(alphas)
        listing += [{
            "cycles": m.cycles(),
            "images": m.images,
            "kind": cls.kind.value,
            "witness_hom": cls.witness_hom,
            "witness_anti": cls.witness_anti,
        } for m in orbit_maps(s, alphas)]
    listing.sort(key=lambda item: item["images"])
    group_ok = None
    if enum.complete:
        group_ok = half_maps_form_group_check(entry.table, enum)
    if args.json:
        print(json.dumps({
            "name": entry.key,
            "order": entry.table.order,
            "complete": enum.complete,
            "total": len(enum.maps),
            "census": dict(sorted(census.items())),
            "group_closed": group_ok,
            "maps": listing,
        }, sort_keys=True, indent=2))
    else:
        for item in listing:
            extra = ""
            if item["witness_hom"] or item["witness_anti"]:
                extra = "  witness_hom=%s witness_anti=%s" % (item["witness_hom"], item["witness_anti"])
            print("%-24s %-17s%s" % (item["cycles"], item["kind"], extra))
        if enum.complete:
            print("total=%d iso=%d anti=%d both=%d proper=%d" % (
                len(enum.maps), census["isomorphism"], census["anti-isomorphism"],
                census["both"], census["proper-half"]))
            print("closed under composition and inverse: %s" % ("yes" if group_ok else "NO"))
        else:
            print("stopped at limit %d: enumeration incomplete, census withheld" % args.limit)
    if group_ok is False:
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_checktheorem(args) -> int:
    from .halfmorph import HalfKind, verify_main_theorem
    from .innermaps import is_automorphic
    from .suites import run_theorem_suites

    status = EXIT_OK
    if args.catalog == bool(args.paths):
        print("checktheorem needs paths or --catalog, not both", file=sys.stderr)
        return EXIT_INPUT
    if args.catalog:
        from . import catalog as cat

        named = [(e.key, e.table) for e in cat.entries()]
    else:
        named = []
        for path in args.paths:
            try:
                entry = _load(path, normalize=args.normalize)
            except LoopFileError as exc:
                print("%s: %s" % (path, exc), file=sys.stderr)
                if exc.stage == "table":
                    # a corrupt table is a failed property, not a bad invocation
                    status = max(status, EXIT_PROPERTY)
                    continue
                return EXIT_INPUT
            named.append((entry.key, entry.table))
    reports = [verify_main_theorem(t, name=name) if t.order <= args.max_half_order else None
               for name, t in named]
    results = run_theorem_suites(named, max_order=args.max_half_order)
    failed = any(r.violations for r in results)
    if failed:
        status = max(status, EXIT_PROPERTY)
    if args.json:
        print(json.dumps({
            "loops": [
                {
                    "name": name,
                    "order": t.order,
                    "moufang": t.is_moufang(),
                    "automorphic": is_automorphic(t),
                    "hypotheses_hold": r.hypotheses_hold if r else None,
                    "proper_half_maps": r.census[HalfKind.PROPER_HALF] if r else None,
                    "enumerated": r is not None,
                }
                for (name, t), r in zip(named, reports)
            ],
            "suites": [
                {
                    "name": s.name,
                    "hypotheses": s.hypothesis_count,
                    "checks": s.check_count,
                    "violations": s.violations,
                    "notes": s.notes,
                }
                for s in results
            ],
            "ok": not failed,
        }, sort_keys=True, indent=2))
    else:
        for (name, t), r in zip(named, reports):
            if r is None:
                print("%s (order %d): enumeration skipped (above threshold)" % (name, t.order))
            else:
                print(r.summary())
        for s in results:
            print(s.line())
        print("theorem check: %s" % ("FAIL" if failed else "ok"))
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopsmith",
        description="Analyze finite loop tables and their half-morphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check that files hold loop tables")
    p.add_argument("paths", nargs="+")
    p.add_argument("--normalize", action="store_true", help="relabel when the identity is not element 1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="full structural report")
    p.add_argument("paths", nargs="+")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-half-order", type=int, default=20, metavar="N",
                   help="skip the half-morphism census above this order (default 20)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("halfautos", help="enumerate half-morphisms of one loop")
    p.add_argument("path")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="stop after the first N maps the search finds (marks the run "
                        "incomplete); once N exceeds the search's first subtree, which maps "
                        "come first can change with the search")
    p.set_defaults(func=cmd_halfautos)

    p = sub.add_parser("checktheorem", help="run the theorem driver and all identity suites")
    p.add_argument("paths", nargs="*")
    p.add_argument("--catalog", action="store_true", help="run over every built-in loop")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-half-order", type=int, default=20, metavar="N")
    p.set_defaults(func=cmd_checktheorem)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InternalCheckError, ValueError) as exc:
        # bad input is rejected up front, so a ValueError here is a bug
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except LoopError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PROPERTY


def console_main():
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # Python's documented recipe: point stdout at devnull, so that the
        # flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_PIPE
    sys.exit(status)


if __name__ == "__main__":
    console_main()
