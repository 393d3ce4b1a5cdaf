"""The package's records and import graph: what importing them costs,
which modules each command loads, and the constructor contracts the
records keep without dataclasses."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import loopsmith
from loopsmith import catalog
from loopsmith.catalog import CatalogEntry
from loopsmith.halfmorph import HalfEnumeration, HalfMap, HalfMaps, TheoremReport, make_half_map, weighted_maps
from loopsmith.subloops import Subloop, SubloopSearch
from loopsmith.suites import SuiteResult
from loopsmith.table import LoopTable, ValidationReport

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # dataclasses imports inspect, which imports dis and ast: about 10 ms
    # of every CLI run before any class is decorated
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import loopsmith.cli, sys; "
         "print(sorted({'dataclasses', 'inspect', 'dis', 'ast'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def _modules_loaded_by(argv, code):
    """The loopsmith submodules that running the CLI on argv imports, in a
    fresh interpreter, after checking that it exits with code and loads
    none of the modules that argparse brings in."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = ("import contextlib, io, json, sys\n"
              "from loopsmith.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
              "    assert main(%r) == %d\n"
              "assert not {'argparse', 'gettext', 'locale'} & set(sys.modules)\n"
              "print(json.dumps([m for m in sys.modules if m.startswith('loopsmith.')]))\n" % (argv, code))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


# the loopsmith modules each command loads.  Every run loads cli, errors and
# table, and then the module of its command: analyzecli for validate and
# analyze, halfautoscli for halfautos, halfcli for checktheorem.  An input
# loads loopfile, and the .loop reader (loopformat) only when a file is
# read, the catalog only for a catalog key.  analyze without the census
# needs closure and innermaps, and the census subloops and halfmorph.
BASE = {"cli", "errors", "table"}
FILE = {"loopfile", "loopformat"}
KEY = {"loopfile", "catalog"}
ANALYZE = {"analyzecli", "closure", "innermaps"}
CENSUS = {"closure", "innermaps", "subloops", "halfmorph"}


@pytest.mark.parametrize("argv, code, modules", [
    (["validate", "--json", "FILE"], 0, BASE | FILE | {"analyzecli"}),
    (["analyze", "--json", "FILE"], 0, BASE | FILE | ANALYZE),
    (["analyze", "--json", "Q2"], 0, BASE | KEY | ANALYZE | CENSUS),
    (["checktheorem", "--json", "Q2"], 0, BASE | KEY | CENSUS | {"halfcli", "suites"}),
    (["halfautos", "--json", "Q2"], 0, BASE | KEY | CENSUS | {"halfautoscli"}),
    (["checktheorem", "--json", "Q2FILE"], 0, BASE | FILE | CENSUS | {"halfcli", "suites"}),
    (["halfautos", "--json", "Q2FILE"], 0, BASE | FILE | CENSUS | {"halfautoscli"}),
    # a name that cannot be a catalog key does not load the catalog, and a
    # file that cannot be read does not load the reader
    (["analyze", "nosuch.loop"], 2, BASE | {"analyzecli", "loopfile"}),
    (["--help"], 0, BASE),
    (["analyze", "--bogus", "Q2"], 2, BASE),
], ids=["validate-file", "analyze-file", "analyze-key", "checktheorem-key", "halfautos-key",
        "checktheorem-file", "halfautos-file", "analyze-missing-file", "help", "usage-error"])
def test_each_command_loads_exactly_its_modules(tmp_path, argv, code, modules):
    path = tmp_path / "m16.loop"
    table = catalog.make_chein(catalog.make_dihedral(16))
    assert table.order == 32  # above --max-half-order, so analyze skips the census
    path.write_text(catalog.write_loop_file(table), encoding="utf-8")
    q2 = tmp_path / "q2.loop"
    q2.write_text(catalog.write_loop_file(catalog.builtin("Q2")), encoding="utf-8")
    files = {"FILE": str(path), "Q2FILE": str(q2)}
    loaded = _modules_loaded_by([files.get(arg, arg) for arg in argv], code)
    assert loaded == {"loopsmith." + name for name in modules}


def test_a_catalog_child_loads_no_other_commands_code_and_no_reader():
    """checktheorem --json KEY, one child of the benchmark's catalog run,
    compiles neither validate, analyze nor halfautos, nor the .loop reader
    and writer."""
    loaded = _modules_loaded_by(["checktheorem", "--json", "M(S3,2)"], 0)
    assert "loopsmith.halfcli" in loaded
    assert not loaded & {"loopsmith.analyzecli", "loopsmith.halfautoscli", "loopsmith.loopformat"}


def test_importing_the_package_modules_makes_no_compile_call():
    """Every call of builtins.compile while the modules are imported is the
    import system compiling a module's own source.  typing.NamedTuple
    compiled each field's string annotation (46 calls for the records of
    a checktheorem run); collections.namedtuple takes the field names as
    they are."""
    script = ("import builtins, json, pkgutil, importlib, sys\n"
              "real = builtins.compile\n"
              "calls = []\n"
              "def counting(source, filename, *args, **kwargs):\n"
              "    calls.append(str(filename))\n"
              "    return real(source, filename, *args, **kwargs)\n"
              "builtins.compile = counting\n"
              "import loopsmith\n"
              "for info in pkgutil.iter_modules(loopsmith.__path__):\n"
              "    importlib.import_module('loopsmith.' + info.name)\n"
              "files = {m.__file__ for name, m in sys.modules.items() if name.startswith('loopsmith')}\n"
              "print(json.dumps([sorted(files), [c for c in calls if c not in files]]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True).stdout
    files, others = json.loads(out.splitlines()[-1])
    assert len(files) == len(list((SRC / "loopsmith").glob("*.py")))
    assert others == []


def test_no_module_of_the_package_imports_the_cli():
    """Under ``python -m loopsmith.cli`` the cli runs as __main__, so a
    module that imported loopsmith.cli would compile it a second time."""
    for path in sorted((SRC / "loopsmith").glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                # the package is flat, so a relative import has level 1
                module = ".".join(filter(None, ["loopsmith" if node.level else None, node.module]))
                imported.add(module)
                imported.update(module + "." + alias.name for alias in node.names)
        assert "loopsmith.cli" not in imported, path.name


# the names that end the process: os._exit, sys.exit, the exit and quit
# builtins, and SystemExit, which sys.exit raises
ENDS_THE_PROCESS = {("os", "_exit"), ("sys", "exit"), (None, "exit"), (None, "quit"), (None, "SystemExit")}


def _ends_the_process(node):
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr) in ENDS_THE_PROCESS
    if isinstance(node, ast.Name):
        return (None, node.id) in ENDS_THE_PROCESS
    if isinstance(node, ast.ImportFrom):
        return any((node.module, alias.name) in ENDS_THE_PROCESS for alias in node.names)
    return False


def test_only_console_main_ends_the_process():
    """main and every command return their code, so loopbench/inproc.py and
    the tests can run them in process; console_main alone ends the run."""
    places = []
    for path in sorted((SRC / "loopsmith").glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(statement, "name", None)  # the top-level function or class, if any
            places += [(path.stem, owner, ast.unparse(node)) for node in ast.walk(statement)
                       if _ends_the_process(node)]
    assert places == [("cli", "console_main", "os._exit")]


# the package's names, by the submodule that defines them
PACKAGE_NAMES = {
    "errors": ("HalfMapError", "InternalCheckError", "LoopError", "LoopFileError", "QuotientError",
               "TableValidationError", "TheoremViolation"),
    "table": ("LoopTable", "MoufangFlags", "ValidationReport", "relabel", "validate"),
    "closure": ("Subloop", "associator_subloop", "center", "commutant", "commutative_nilpotency_class",
                "commutator_subloop", "generate_subloop", "nucleus", "nucleus_left", "nucleus_middle",
                "nucleus_right"),
    "subloops": ("hall_3prime_subgroup", "is_normal", "quotient", "restriction", "sylow_subloop"),
    "innermaps": ("cycles_str", "inner_l", "inner_r", "inner_t", "is_automorphic", "is_automorphism",
                  "is_left_automorphic", "inner_map_witness", "perm_from_cycles"),
    "halfmorph": ("GGTriple", "HalfClass", "HalfEnumeration", "HalfKind", "HalfMap", "SearchStats",
                  "TheoremReport", "classify", "d_set", "enumerate_half_automorphisms", "find_gg_triples",
                  "half_maps_form_group_check", "induced_on_quotient", "is_semi_isomorphism",
                  "make_half_map", "verify_main_theorem"),
    "loopfile": ("CatalogEntry",),
    "loopformat": ("parse_loop_file", "write_loop_file"),
    "catalog": ("builtin", "catalog_keys", "check_expected", "entries", "make_chein", "make_cyclic",
                "make_dihedral", "make_quaternion8", "make_symmetric3"),
}


def test_package_names_are_the_submodules_own_objects():
    listed = dir(loopsmith)
    for module, names in PACKAGE_NAMES.items():
        sub = importlib.import_module("loopsmith." + module)
        for name in names:
            assert getattr(loopsmith, name) is getattr(sub, name), name
            assert name in listed, name
    assert sorted(loopsmith.__all__) == sorted(n for names in PACKAGE_NAMES.values() for n in names)
    with pytest.raises(AttributeError):
        loopsmith.no_such_name


def test_names_moved_out_stay_bound_where_the_benchmark_looks_them_up():
    """The benchmark's tracer and workloads read cli.analyze_table and
    catalog.parse_loop_file and write_loop_file; the modules load them on
    first use (PEP 562)."""
    from loopsmith import analyzecli, cli, loopformat

    assert cli.analyze_table is analyzecli.analyze_table
    assert catalog.parse_loop_file is loopformat.parse_loop_file
    assert catalog.write_loop_file is loopformat.write_loop_file
    for module in (cli, catalog):
        with pytest.raises(AttributeError):
            module.no_such_name


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import loopsmith, sys; "
         "print(sorted(m for m in sys.modules if m.startswith('loopsmith.')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("make", [
    lambda: SuiteResult("s"),
    lambda: SuiteResult("s", 3, 5),
    lambda: CatalogEntry("c", catalog.make_cyclic(1)),
])
def test_default_lists_and_dicts_are_fresh_per_instance(make):
    first, second = make(), make()
    containers = [name for name in type(first).__slots__
                  if isinstance(getattr(first, name), (list, dict))]
    assert containers
    for name in containers:
        assert getattr(first, name) == type(getattr(first, name))()
        assert getattr(first, name) is not getattr(second, name), name


def test_constructors_keep_their_positional_order_keywords_and_defaults():
    z1 = catalog.make_cyclic(1)
    s = SuiteResult("s", 1, 2, ["v"], ["n"])
    assert (s.name, s.hypothesis_count, s.check_count, s.violations, s.notes) == ("s", 1, 2, ["v"], ["n"])
    s = SuiteResult(name="s")
    assert (s.hypothesis_count, s.check_count, s.violations, s.notes) == (0, 0, [], [])

    c = CatalogEntry("c", z1, {"moufang": (True, "trivial")}, (1,))
    assert (c.key, c.table, c.expected, c.featured_half_map) == ("c", z1, {"moufang": (True, "trivial")}, (1,))
    c = CatalogEntry(key="c", table=z1)
    assert (c.expected, c.featured_half_map) == ({}, None)

    t = TheoremReport("t", 1, True, False, "w", False, 1, {}, ("m",))
    assert (t.name, t.order, t.moufang, t.automorphic, t.automorphic_witness, t.hypotheses_hold,
            t.total, t.census, t.proper_maps) == ("t", 1, True, False, "w", False, 1, {}, ("m",))
    assert TheoremReport(name="t", order=1, moufang=True, automorphic=True, automorphic_witness=None,
                         hypotheses_hold=True, total=1, census={}).proper_maps == ()

    H = Subloop(z1, (1,))
    assert (H.parent, H.elements, H.is_group) == (z1, (1,), True)
    assert Subloop(parent=z1, elements=(1,)).elements == (1,)
    assert SubloopSearch(H, 1) == (H, 1)
    assert SubloopSearch(subloop=None, target=2).subloop is None
    assert ValidationReport(True, True, 1, []).is_loop


def test_half_map_masks_are_computed_unless_both_are_given(q2):
    images = (1, 2, 5, 6, 3, 4, 8, 7)
    m = make_half_map(q2, q2, images)
    for hom, anti in ((None, None), (m.hom, None), (None, m.anti)):
        again = HalfMap(q2, q2, images, hom, anti)
        assert (again.hom, again.anti) == (m.hom, m.anti)
    given = HalfMap(q2, q2, images, hom=0, anti=1)
    assert (given.hom, given.anti) == (0, 1)


def test_half_maps_compare_and_hash_by_domain_codomain_and_images(q2):
    images = (1, 2, 5, 6, 3, 4, 8, 7)
    m = make_half_map(q2, q2, images)
    same = HalfMap(q2, q2, images, hom=0, anti=0)
    assert m == same and hash(m) == hash(same)
    assert len({m, same}) == 1
    assert m != make_half_map(q2, q2, tuple(range(1, 9)))
    copy = LoopTable(q2.rows)
    assert m == HalfMap(copy, copy, images)
    assert m != images


def test_enumeration_without_sources_makes_every_map_its_own(q2, q2_enum):
    """A hand-built enumeration of one entry (maps, ()) composes no map,
    so its weighted walk gives every map once, standing for itself alone;
    the search's own maps keep the entries it gave them."""
    hand = tuple(HalfMap(q2, q2, m.images) for m in q2_enum.maps)
    enum = HalfEnumeration(HalfMaps(((hand, ()),)), True)
    assert enum.stats is None
    assert list(weighted_maps(enum)) == [(m, ()) for m in hand]
    assert list(enum.maps) == list(hand)
    none = HalfMaps(())
    assert HalfEnumeration(none, False) == (none, False, None)
    again = HalfEnumeration(q2_enum.maps, True, q2_enum.stats)
    assert again == q2_enum
    assert again.maps.entries is q2_enum.maps.entries
    assert any(alphas for _, alphas in again.maps.entries)
