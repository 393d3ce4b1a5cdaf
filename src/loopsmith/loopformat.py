""".loop text: the reader and the writer.

table.load_loop imports this module only when it reads a file, so a
run on catalog keys does not compile it (README, "Start-up").  The
numbers of a file, its order and its table entries, are ASCII decimal
digits and nothing else.
"""

from __future__ import annotations

from .table import MAX_ORDER, CatalogEntry, LoopFileError, LoopTable, TableValidationError, too_large_message


def _number(token):
    """The value of a token of the ASCII digits 0-9 alone, else None.  int()
    would also take a sign, underscores between digits and other scripts'
    digits, and it refuses more digits than sys.get_int_max_str_digits()."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:
            pass
    return None


def _numbers(tokens):
    """The values of tokens that are all numbers (see _number), else None.
    The row is checked as one string, faster than token by token."""
    joined = "".join(tokens)
    if joined.isascii() and joined.isdigit():
        try:
            return list(map(int, tokens))
        except ValueError:
            pass
    return None


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
            order = _number(line)
            if order is None:
                raise LoopFileError("expected the order in the digits 0-9, got %r" % line, line=lineno, column=1)
            if order < 1:
                raise LoopFileError("order must be positive, got %d" % order, line=lineno)
            if order > MAX_ORDER:
                raise LoopFileError(too_large_message(order), line=lineno)
            continue
        if len(rows) == order:
            raise LoopFileError("extra row after %d table rows" % order, line=lineno)
        tokens = line.split()
        values = _numbers(tokens)
        if values is None:
            col, tok = next((col, tok) for col, tok in enumerate(tokens, start=1) if _number(tok) is None)
            raise LoopFileError("entry %r is not an integer in the digits 0-9" % tok, line=lineno, column=col)
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
