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

import os
import sys
from types import SimpleNamespace

from .table import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_PIPE, EXIT_PROPERTY, InternalCheckError, LoopError

# Module boundaries follow the commands, because every run compiles the
# modules it imports (README, "Start-up").  This module reads the command
# line and dispatches; main imports the module of the command it runs:
# analyzecli for validate and analyze, halfautoscli for halfautos, suites
# for checktheorem.  None of them imports this module.  Each command
# imports the other modules it runs where it runs them: validate needs no
# computation module, analyze without the census loads closure and
# innermaps, catalog loads only for a name that could be a catalog key, or
# --catalog, and the .loop reader (loopformat) only for a file.  The
# parser below is a table rather than argparse, which imports gettext and
# locale and builds a parser for every command on each run.
# tests/test_records.py pins each command's module set.
#
# validate is unused here; it stays bound because the benchmark's test of
# its tracer (loopbench/test_loopbench.py) checks that this binding is wrapped
from .table import validate  # noqa: F401


def __getattr__(name):
    """analyze_table, loaded on first use (PEP 562): it lives in analyzecli,
    and stays resolvable here, where the benchmark's tracer looks it up."""
    if name == "analyze_table":
        from .analyzecli import analyze_table

        return analyze_table
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


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
    if args.command in ("validate", "analyze"):
        from . import analyzecli as commands
    elif args.command == "halfautos":
        from . import halfautoscli as commands
    else:
        from . import suites as commands
    run = getattr(commands, "cmd_" + args.command)
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
