"""Shared fixtures; heavy enumerations are computed once per session."""

from __future__ import annotations

import random

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
