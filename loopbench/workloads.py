"""Workloads of the loopsmith benchmark.

A workload turns a seed into input files, lists the CLI invocations that
make one timed pass, and checks the output of every invocation against
golden values frozen in golden.json.

Inputs are relabelings of tables built by the catalog constructors: a
random permutation of the elements that fixes 1, applied with the public
``table.relabel`` and written with ``catalog.write_loop_file``.  The CLI
sees only those files (or catalog keys), never the benchmark's objects.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple       # CLI arguments placed before the input path
    tables: tuple        # (base table, relabelings per seed); empty for the catalog keys
    why: str


# One invocation per catalog loop or input file, each short next to a run so
# that a run samples it more than once; README.md says why these tables.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catalog-theorem",
            ("checktheorem", "--json"),
            (),
            "The paper's verification run, one checktheorem per catalog loop over all "
            "27: suites, subloop closure and per-map passes dominate.",
        ),
        Workload(
            "analyze-large",
            ("analyze", "--json"),
            (("M(D16,2)", 2), ("M(D18,2)", 2), ("M(D20,2)", 2), ("M(D22,2)", 2), ("M(D24,2)", 2)),
            "Structural report on relabeled order-32 to order-48 Moufang loops: "
            "diassociativity closures and inner-map scans, census skipped.",
        ),
    )
}


def base_table(key):
    """Canonical table for a base key, built by the catalog constructors."""
    from loopsmith import catalog as cat

    if key.startswith("M("):
        return cat.make_chein(base_table(key[2:-3]))  # "M(D16,2)" -> M(D16)
    if key.startswith("D"):
        return cat.make_dihedral(int(key[1:]))
    raise KeyError("no constructor for %r" % (key,))


def relabeling(n, rng):
    """A random permutation of 1..n that fixes 1, as an image list."""
    return [1] + rng.sample(range(2, n + 1), n - 1)


@dataclass(frozen=True)
class Input:
    arg: str    # what the CLI receives: a path relative to the checkout, or a catalog key
    base: str   # key of the canonical table it relabels
    name: str   # name directive written into the file


def generate(workload, seed, root, outdir):
    """Write the seeded inputs of a workload under outdir.

    The same workload and seed always give byte-identical files.
    Returns the inputs in pass order, with paths relative to root.
    """
    from loopsmith.catalog import catalog_keys, write_loop_file
    from loopsmith.table import LoopTable, relabel

    w = WORKLOADS[workload]
    if not w.tables:
        return [Input(key, key, key) for key in catalog_keys()]
    rng = random.Random("%s/%d" % (workload, seed))
    outdir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for base, count in w.tables:
        canon = base_table(base)
        for r in range(count):
            name = "%s-r%d" % (base, r)
            table = LoopTable(relabel(canon.rows, relabeling(canon.order, rng)), name=name)
            path = outdir / ("%02d-%s.loop" % (len(inputs), _slug(name)))
            path.write_text(write_loop_file(table), encoding="utf-8")
            inputs.append(Input(path.relative_to(root).as_posix(), base, name))
    return inputs


def _slug(name):
    return "".join(c if c.isalnum() or c == "-" else "_" for c in name)


# -- invocations and golden checks ------------------------------------


def golden():
    return json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


def setup_argv(inputs):
    """The set-up invocation: validate every input of the workload."""
    return ["validate", "--json"] + [i.arg for i in inputs]


def pass_argvs(workload, inputs):
    """The CLI invocations of one timed pass, one per input."""
    return [list(WORKLOADS[workload].command) + [i.arg] for i in inputs]


def check_setup(gold, inputs, code, stdout):
    """Problems with a validate run; an empty list means it passed."""
    try:
        lines = [_load_json(code, line) for line in stdout.splitlines() if line.strip()]
    except ValueError as exc:
        return ["validate: %s" % exc]
    if len(lines) != len(inputs):
        return ["validate reported %d of %d inputs" % (len(lines), len(inputs))]
    problems = []
    for inp, got in zip(inputs, lines):
        order = gold["orders"][inp.base]
        if got.get("name") != inp.name or got.get("order") != order or got.get("is_loop") is not True:
            problems.append("validate %s: %r" % (inp.arg, got))
    return problems


def check_invocation(gold, workload, inp, code, stdout):
    """Problems with one invocation's output; an empty list means it passed."""
    check = _check_catalog if workload == "catalog-theorem" else _check_analyze
    return check(gold, inp, code, stdout)


def check_pass(gold, workload, inputs, outputs):
    """Problems per invocation of one pass; outputs are (code, stdout)."""
    return [check_invocation(gold, workload, inp, code, stdout) for inp, (code, stdout) in zip(inputs, outputs)]


def _load_json(code, stdout):
    """The JSON object a successful invocation printed; ValueError otherwise."""
    if code != 0:
        raise ValueError("exit code %r" % (code,))
    payload = json.loads(stdout)
    if not isinstance(payload, dict):
        raise ValueError("output is not a JSON object")
    return payload


def _check_analyze(gold, inp, code, stdout):
    try:
        got = _load_json(code, stdout)
    except ValueError as exc:
        return ["%s: %s" % (inp.arg, exc)]
    want = gold["analyze"][inp.base]
    problems = []
    if got.get("name") != inp.name or got.get("order") != gold["orders"][inp.base]:
        problems.append("name or order %r %r" % (got.get("name"), got.get("order")))
    for key in ("flags", "subloop_orders", "nilpotency_class"):
        if got.get(key) != want[key]:
            problems.append("%s %r, want %r" % (key, got.get(key), want[key]))
    if got.get("half_census_skipped") is not True or got.get("half_census") is not None:
        problems.append("half census was not skipped")
    return ["%s: %s" % (inp.arg, p) for p in problems]


def _check_catalog(gold, inp, code, stdout):
    try:
        got = _load_json(code, stdout)
    except ValueError as exc:
        return ["checktheorem %s: %s" % (inp.arg, exc)]
    want = next(loop for loop in gold["catalog-theorem"]["loops"] if loop["name"] == inp.base)
    problems = []
    if got.get("ok") is not True:
        problems.append("ok is %r" % (got.get("ok"),))
    loops = got.get("loops", [])
    if len(loops) != 1:
        problems.append("%d loops reported" % len(loops))
    for have in loops[:1]:
        for key, value in want.items():
            if key != "suites" and have.get(key) != value:
                problems.append("%s=%r, want %r" % (key, have.get(key), value))
        if have.get("hypotheses_hold") and have.get("proper_half_maps"):
            problems.append("holds both hypotheses yet has proper maps")
    suites = {s.get("name"): s for s in got.get("suites", [])}
    if sorted(suites) != sorted(want["suites"]):
        problems.append("suite names %r" % sorted(suites))
    for name, (hypotheses, checks) in want["suites"].items():
        s = suites.get(name, {})
        if s.get("violations") != []:
            problems.append("suite %s violations %r" % (name, s.get("violations")))
        if (s.get("hypotheses"), s.get("checks")) != (hypotheses, checks):
            problems.append("suite %s hypotheses=%r checks=%r, want %r and %r"
                            % (name, s.get("hypotheses"), s.get("checks"), hypotheses, checks))
    return ["checktheorem %s: %s" % (inp.arg, p) for p in problems]
