"""The checktheorem command: the theorem driver and the identity suites.

Its code sits apart from cli.py so that no other command compiles it
(README, "Start-up"): cli.main imports this module for checktheorem
only.  It must not import loopsmith.cli: under ``python -m
loopsmith.cli`` that module runs as __main__, and importing it by name
would compile cli.py a second time.
"""

from __future__ import annotations

import json
import sys

from .errors import EXIT_INPUT, EXIT_OK, EXIT_PROPERTY, LoopFileError
from .loopfile import load_loop


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
                entry = load_loop(path, normalize=args.normalize)
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
