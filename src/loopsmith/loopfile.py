"""Loading a loop: from a .loop file, or from the catalog by key, into a
CatalogEntry.

Reading a file needs nothing from the built-in catalog, so the CLI loads
this module and not catalog.py for a path, and the .loop reader, in
loopformat, only when a file is read (README, "Start-up").
"""

from __future__ import annotations

import os

from .errors import LoopFileError
from .table import LoopTable


class CatalogEntry:
    """A loop with its key, its expected properties, each mapped to
    (value, provenance), and its featured half-map images, if any."""

    __slots__ = ("key", "table", "expected", "featured_half_map")

    def __init__(self, key: str, table: LoopTable, expected: dict | None = None,
                 featured_half_map: tuple | None = None):
        self.key = key
        self.table = table
        self.expected = {} if expected is None else expected
        self.featured_half_map = featured_half_map


def load_loop(path, normalize=False) -> CatalogEntry:
    """Read a .loop file, or fall back to a catalog key; the catalog is
    imported only for a name that is not a file and could be a key."""
    # no catalog key holds a path separator or ends in .loop
    could_be_key = not (path.endswith(".loop") or os.sep in path or (os.altsep or os.sep) in path)
    if could_be_key and not os.path.exists(path):
        from . import catalog as cat

        if path in cat.catalog_keys():
            return cat.builtin(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise LoopFileError("cannot read %s: %s" % (path, exc)) from exc
    from .loopformat import parse_loop_file

    return parse_loop_file(text, normalize=normalize)
