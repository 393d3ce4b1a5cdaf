"""Command-line interface.

Commands: validate, analyze, halfautos, checktheorem; COMMANDS lays out
their inputs and options, parse_args reads a command line against it,
and ``loopsmith --help`` prints the synopsis.  Inputs are .loop files; a
bare catalog key (like Q1 or Z6) is accepted wherever a path does not
exist on disk.  Exit codes: 0 success, 1 a property or theorem
failed, 2 unreadable input or bad usage, 3 an internal self-check failed
or an unexpected ValueError escaped (a bug or corrupted state, not a
property of the input), 141 standard output was closed before all of it
was written, as when ``loopsmith halfautos Q1 | head -1`` stops reading
(128 plus SIGPIPE, what a shell reports for a program that signal ends).

main returns the exit code and never ends the process, so it can run in
process.  console_main, the entry point of ``loopsmith`` and ``python -m
loopsmith.cli``, flushes stdout and stderr and then ends the process with
os._exit, without interpreter teardown; atexit handlers do not run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace

from .errors import (EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_PIPE, EXIT_PROPERTY, InternalCheckError,
                     LoopError, LoopFileError)
from .loopfile import load_loop

# Module boundaries follow the commands, because every run compiles the
# modules it imports (README, "Start-up").  validate and analyze live here;
# halfautos and checktheorem live in halfcli, which main imports for those
# two only, and which imports nothing from this module.  Each command imports
# the other modules it runs where it runs them: validate on a file loads
# none of them, analyze without the census loads closure and innermaps, and
# catalog loads only for a name that could be a catalog key, or --catalog.
# The parser below is a table rather than argparse, which imports gettext
# and locale and builds a parser for every command on each run.
# tests/test_records.py pins each command's module set.
#
# validate is unused here; it stays bound because the benchmark's test of
# its tracer (loopbench/test_loopbench.py) checks that this binding is wrapped
from .table import validate  # noqa: F401


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


# -- the command line -----------------------------------------------

# command -> (name of its inputs, least and most count of inputs, None for
# no bound; its flags; its options that take an integer N, with defaults)
COMMANDS = {
    "validate": ("paths", 1, None, ("--normalize", "--json"), {}),
    "analyze": ("paths", 1, None, ("--normalize", "--json"), {"--max-half-order": 20}),
    "halfautos": ("path", 1, 1, ("--normalize", "--json"), {"--limit": None}),
    "checktheorem": ("paths", 0, None, ("--catalog", "--normalize", "--json"), {"--max-half-order": 20}),
}

HELP = """
Analyze finite loop tables and their half-morphisms.  PATH is a .loop
file, or a catalog key such as Q1 where no such file exists.  Options go
before or after the paths, as --opt N or --opt=N; a long option may be
shortened to a prefix that names only it, and -- ends the options.

commands:
  validate       check that files hold loop tables
  analyze        full structural report
  halfautos      enumerate the half-morphisms of one loop
  checktheorem   run the theorem driver and all identity suites, on the
                 paths or on every built-in loop (--catalog), not both

options:
  --normalize          relabel a table whose identity is not element 1
  --json               print JSON
  --max-half-order N   skip the half-morphism census above order N (default 20)
  --limit N            stop after the first N maps the search finds, and
                       mark the run incomplete
  --catalog            run over every built-in loop"""


class UsageError(Exception):
    """The command line does not fit COMMANDS."""


def usage() -> str:
    """The synopsis of every command, as --help and usage errors print it."""
    lines = []
    for command, (_, least, most, flags, values) in COMMANDS.items():
        words = ["loopsmith", command] + ["[%s]" % f for f in flags] + ["[%s N]" % o for o in values]
        words.append("PATH" if most == 1 else "PATH..." if least else "[PATH...]")
        lines.append(" ".join(words))
    lines.append("loopsmith -h | --help")
    return "usage: " + "\n       ".join(lines)


def _attr(option) -> str:
    return option[2:].replace("-", "_")


def _is_option(word) -> bool:
    # "-" and negative numbers, as in --limit -1, are values
    return word.startswith("-") and len(word) > 1 and not word[1].isdigit()


def _option(word, options):
    """The option that word names: itself, or the one option it begins."""
    if word in options:
        return word
    found = [o for o in options if len(word) > 2 and word.startswith("--") and o.startswith(word)]
    if len(found) != 1:
        raise UsageError("unknown option %s" % word)
    return found[0]


def parse_args(argv):
    """The command and its arguments read from argv against COMMANDS, as a
    namespace with one attribute per input and option; None for -h or
    --help.  Raises UsageError for a command line that does not fit."""
    if not argv:
        raise UsageError("no command given")
    command, *rest = argv
    if _is_option(command):
        _option(command, ("-h", "--help"))  # any other option is an error here
        return None
    if command not in COMMANDS:
        raise UsageError("unknown command %r (choose from %s)" % (command, ", ".join(COMMANDS)))
    inputs_name, least, most, flags, values = COMMANDS[command]
    args = SimpleNamespace(command=command, **{_attr(f): False for f in flags},
                           **{_attr(o): default for o, default in values.items()})
    options = flags + tuple(values) + ("-h", "--help")
    inputs = []
    words = iter(rest)
    for word in words:
        if word == "--":
            inputs += words  # the rest, options or not
        elif not _is_option(word):
            inputs.append(word)
        else:
            name, given, value = word.partition("=")
            name = _option(name, options)
            if name in ("-h", "--help"):
                return None
            if name in flags:
                if given:
                    raise UsageError("%s takes no value" % name)
                setattr(args, _attr(name), True)
                continue
            if not given:
                value = next(words, None)
                if value is None or _is_option(value):
                    raise UsageError("%s needs a value" % name)
            try:
                setattr(args, _attr(name), int(value))
            except ValueError:
                raise UsageError("%s takes an integer, got %r" % (name, value)) from None
    if len(inputs) < least:
        raise UsageError("%s needs %s" % (command, "a path" if most == 1 else "at least one path"))
    if most is not None and len(inputs) > most:
        raise UsageError("%s takes one path, got %d" % (command, len(inputs)))
    setattr(args, inputs_name, inputs[0] if most == 1 else inputs)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print("%s\nloopsmith: error: %s" % (usage(), exc), file=sys.stderr)
        return EXIT_INPUT
    if args is None:
        print(usage() + "\n" + HELP)
        return EXIT_OK
    if args.command == "validate":
        run = cmd_validate
    elif args.command == "analyze":
        run = cmd_analyze
    else:
        from . import halfcli

        run = getattr(halfcli, "cmd_" + args.command)
    try:
        return run(args)
    except (InternalCheckError, ValueError) as exc:
        # bad input is rejected up front, so a ValueError here is a bug
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except LoopError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PROPERTY


def console_main():
    """The one place where a run ends.  os._exit skips interpreter teardown,
    which frees every module, memo and table (README, "Start-up"); nothing
    flushes stdout or stderr after it, so they are flushed here."""
    try:
        status = main()
        sys.stdout.flush()  # a closed pipe shows here
    except BrokenPipeError:
        # what stdout still buffers is dropped by os._exit, not flushed again
        status = EXIT_PIPE
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    console_main()
