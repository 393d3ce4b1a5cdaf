"""The halfautos command: every half-map of one loop, with its kind.

Its code sits apart from cli.py and halfcli.py so that no other command
compiles it (README, "Start-up"): cli.main imports this module for
halfautos only.  It must not import loopsmith.cli: under ``python -m
loopsmith.cli`` that module runs as __main__, and importing it by name
would compile cli.py a second time.
"""

from __future__ import annotations

import json
import sys

from .errors import EXIT_INPUT, EXIT_OK, EXIT_PROPERTY, LoopFileError
from .table import load_loop


def cmd_halfautos(args) -> int:
    from .halfmorph import (HalfKind, classify, enumerate_half_automorphisms,
                            half_maps_form_group_check, orbit_maps, weight, weighted_maps)

    if args.limit is not None and args.limit < 1:
        print("--limit must be at least 1, got %d" % args.limit, file=sys.stderr)
        return EXIT_INPUT
    try:
        entry = load_loop(args.path, normalize=args.normalize)
    except LoopFileError as exc:
        print("%s: %s" % (args.path, exc), file=sys.stderr)
        return EXIT_PROPERTY if exc.stage == "table" else EXIT_INPUT
    enum = enumerate_half_automorphisms(entry.table, limit=args.limit)
    census = {kind.value: 0 for kind in HalfKind}
    listing = []
    # the kind and witnesses read only the masks, which every map s stands for shares with s
    for s, ts in weighted_maps(enum):
        cls = classify(s)
        census[cls.kind.value] += weight(ts)
        listing += [{
            "cycles": m.cycles(),
            "images": m.images,
            "kind": cls.kind.value,
            "witness_hom": cls.witness_hom,
            "witness_anti": cls.witness_anti,
        } for m in orbit_maps(s, ts)]
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
