""".loop files: reading, writing, and the CatalogEntry they load into.

Reading a file needs nothing from the built-in catalog, so the CLI loads
this module and not catalog.py for a path (README, "Start-up").
"""

from __future__ import annotations

import os

from .errors import LoopFileError, TableValidationError
from .table import MAX_ORDER, LoopTable, too_large_message


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


def _read_structure(text):
    name = None
    normalize = False
    order = None
    rows = []
    row_lines = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if order is None and ":" in line:
            directive, _, value = line.partition(":")
            directive = directive.strip().lower()
            value = value.strip()
            if directive == "name":
                name = value
                continue
            if directive == "normalize":
                if value.lower() not in ("true", "false"):
                    raise LoopFileError("normalize takes true or false, got %r" % value, line=lineno)
                normalize = value.lower() == "true"
                continue
            raise LoopFileError("unknown directive %r" % directive, line=lineno)
        if order is None:
            try:
                order = int(line)
            except ValueError:
                raise LoopFileError("expected the order, got %r" % line, line=lineno) from None
            if order < 1:
                raise LoopFileError("order must be positive, got %d" % order, line=lineno)
            if order > MAX_ORDER:
                raise LoopFileError(too_large_message(order), line=lineno)
            continue
        if len(rows) == order:
            raise LoopFileError("extra row after %d table rows" % order, line=lineno)
        entries_ = line.split()
        values = []
        for col, tok in enumerate(entries_, start=1):
            try:
                values.append(int(tok))
            except ValueError:
                raise LoopFileError("entry %r is not an integer" % tok, line=lineno, column=col) from None
        if len(values) != order:
            raise LoopFileError(
                "row has %d entries, expected %d" % (len(values), order), line=lineno
            )
        rows.append(values)
        row_lines.append(lineno)
    if order is None:
        raise LoopFileError("file contains no table")
    if len(rows) != order:
        raise LoopFileError("found %d table rows, expected %d" % (len(rows), order))
    return rows, row_lines, name, normalize


def parse_loop_file(text, normalize=False) -> CatalogEntry:
    """Parse .loop text into a validated CatalogEntry.

    Structural defects raise LoopFileError at stage "parse"; tables that
    read fine but fail loop validation (or carry their identity away
    from element 1 without the normalize directive) raise at stage
    "table", pointing at the offending file line when one is known.
    """
    rows, row_lines, name, normalize_directive = _read_structure(text)
    try:
        table = LoopTable(rows, name=name, normalize=normalize or normalize_directive)
    except TableValidationError as exc:
        report = exc.report
        if report.is_loop:
            raise LoopFileError(str(exc), stage="table", report=report) from exc
        kind, witness = report.violations[0]
        line = column = None
        if kind in ("row-not-latin", "bad-entry"):
            line = row_lines[witness[0] - 1]
            column = witness[1] if kind == "bad-entry" else witness[2]
        elif kind == "column-not-latin":
            line = row_lines[witness[2] - 1]
            column = witness[0]
        raise LoopFileError(
            "table is not a loop: %s %r" % (kind, witness),
            line=line, column=column, stage="table", report=report,
        ) from exc
    return CatalogEntry(name or "loop", table)


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
    return parse_loop_file(text, normalize=normalize)


def write_loop_file(entry) -> str:
    """Canonical .loop text: name directive, order, single-space rows."""
    table = entry.table if isinstance(entry, CatalogEntry) else entry
    name = entry.key if isinstance(entry, CatalogEntry) else (table.name or None)
    lines = []
    if name:
        lines.append("name: %s" % name)
    lines.append(str(table.order))
    for row in table.rows:
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"
