"""Shared fixtures; heavy enumerations are computed once per session."""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from loopsmith import catalog
from loopsmith.halfmorph import enumerate_half_automorphisms, make_half_map
from loopsmith.innermaps import perm_from_cycles
from loopsmith.table import LoopTable, relabel

_ENUM_CACHE = {}


@pytest.fixture(scope="session")
def get_enum():
    """Memoized complete enumeration keyed by catalog name."""

    def _get(name, table):
        if name not in _ENUM_CACHE:
            _ENUM_CACHE[name] = enumerate_half_automorphisms(table)
        return _ENUM_CACHE[name]

    return _get


@pytest.fixture(scope="session")
def brute_force_half_maps():
    """The images of every half-automorphism of a loop, found by trying
    each bijection that fixes 1 on every pair: the reference the
    enumerator is compared with on small loops."""

    def _search(t):
        n = t.order
        rows = t.rows
        found = set()
        for rest in permutations(range(2, n + 1)):
            images = (1,) + rest
            ok = True
            for x in range(1, n + 1):
                ix = images[x - 1]
                for y in range(1, n + 1):
                    iy = images[y - 1]
                    got = images[rows[x - 1][y - 1] - 1]
                    if got != rows[ix - 1][iy - 1] and got != rows[iy - 1][ix - 1]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.add(images)
        return found

    return _search


@pytest.fixture(scope="session")
def q1():
    return catalog.builtin("Q1").table


@pytest.fixture(scope="session")
def q2():
    return catalog.builtin("Q2").table


@pytest.fixture(scope="session")
def chein12():
    return catalog.builtin("M(S3,2)").table


@pytest.fixture(scope="session")
def chein():
    """M(G,2) for G = Q8 or a dihedral group D<m>, built once per session
    so that its memoized enumeration is shared."""
    built = {}

    def _get(group):
        if group not in built:
            G = catalog.make_quaternion8() if group == "Q8" else catalog.make_dihedral(int(group[1:]))
            built[group] = catalog.make_chein(G)
        return built[group]

    return _get


@pytest.fixture(scope="session")
def relabeled_chein(chein):
    """A seeded relabeling of M(G,2) that fixes 1, built once per session."""
    built = {}

    def _get(group):
        if group not in built:
            t = chein(group)
            rest = list(range(2, t.order + 1))
            random.Random("relabel-M(%s,2)" % group).shuffle(rest)
            built[group] = LoopTable(relabel(t.rows, [1] + rest))
        return built[group]

    return _get


@pytest.fixture(scope="session")
def s3():
    return catalog.builtin("S3").table


@pytest.fixture(scope="session")
def nonflex5():
    """An order-5 loop that is not flexible: (u*v)*u and u*(v*u) differ."""
    return LoopTable([[1, 2, 3, 4, 5], [2, 1, 4, 5, 3], [3, 4, 5, 1, 2], [4, 5, 2, 3, 1], [5, 3, 1, 2, 4]])


@pytest.fixture(scope="session")
def z256():
    """The cyclic group at the order cap, built without make_cyclic's n**3
    associativity assertion."""
    return LoopTable([[(i + j) % 256 + 1 for j in range(256)] for i in range(256)], name="Z256")


def random_loop(n, seed):
    """A seeded random loop of order n: a Latin square whose row 1 and
    column 1 are 1..n, filled cell by cell in row order, each cell trying
    its free values in a random order and backtracking when none fits."""
    rng = random.Random("random-loop-%d-%d" % (n, seed))
    rows = [list(range(1, n + 1))] + [[x] + [0] * (n - 1) for x in range(2, n + 1)]
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        x, y = cells[k]
        used = set(rows[x]) | {r[y] for r in rows}
        free = [v for v in range(1, n + 1) if v not in used]
        rng.shuffle(free)
        for v in free:
            rows[x][y] = v
            if fill(k + 1):
                return True
        rows[x][y] = 0
        return False

    fill(0)
    return LoopTable(rows, name="random-%d-%d" % (n, seed))


@pytest.fixture(scope="session")
def random_loops():
    """Ten seeded random loops of each order 7 to 10; none is Moufang."""
    return tuple(random_loop(n, seed) for n in range(7, 11) for seed in range(10))


@pytest.fixture(scope="session")
def reference_loops(relabeled_chein, random_loops):
    """The loops whose three-generated sets the inner-map and normality
    references are compared on: the catalog, two relabeled Chein loops
    and the random loops."""
    catalog_tables = tuple(catalog.builtin(key).table for key in catalog.catalog_keys())
    return catalog_tables + (relabeled_chein("D16"), relabeled_chein("D24")) + random_loops


@pytest.fixture(scope="session")
def q1_enum(q1, get_enum):
    return get_enum("Q1", q1)


@pytest.fixture(scope="session")
def q2_enum(q2, get_enum):
    return get_enum("Q2", q2)


@pytest.fixture(scope="session")
def phi1(q1):
    return make_half_map(q1, q1, perm_from_cycles(16, [(5, 8)]))


@pytest.fixture(scope="session")
def phi2(q2):
    return make_half_map(q2, q2, perm_from_cycles(8, [(3, 5), (4, 6), (7, 8)]))
