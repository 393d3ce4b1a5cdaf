"""Built-in loops and constructors for standard families.

The two featured tables Q1 (order 16, Moufang with a proper
half-morphism) and Q2 (order 8, all inner maps automorphisms, not
Moufang) are stored literally; a transcription checksum lives in the
test suite.  Every entry carries an expected-property map in which each
value is tagged with where it came from: "external" for values that
arrived together with the table, "trivial" for immediate consequences
of a construction, "derived" for values first computed here and frozen.
"""

from __future__ import annotations

from .table import CatalogEntry, LoopTable, cayley
# validate is unused here; it stays bound because the benchmark's test of
# its tracer (loopbench/test_loopbench.py) checks that this binding is wrapped
from .table import validate  # noqa: F401

Q1_ROWS = (
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16),
    (2, 4, 8, 6, 3, 1, 5, 7, 14, 9, 16, 10, 11, 12, 13, 15),
    (3, 5, 4, 7, 6, 8, 1, 2, 15, 13, 9, 11, 14, 16, 12, 10),
    (4, 6, 7, 1, 8, 2, 3, 5, 12, 14, 15, 9, 16, 10, 11, 13),
    (5, 7, 2, 8, 4, 3, 6, 1, 13, 11, 14, 16, 12, 15, 10, 9),
    (6, 1, 5, 2, 7, 4, 8, 3, 10, 12, 13, 14, 15, 9, 16, 11),
    (7, 8, 1, 3, 2, 5, 4, 6, 11, 16, 12, 15, 10, 13, 9, 14),
    (8, 3, 6, 5, 1, 7, 2, 4, 16, 15, 10, 13, 9, 11, 14, 12),
    (9, 10, 11, 12, 16, 14, 15, 13, 4, 6, 7, 1, 5, 2, 3, 8),
    (10, 12, 16, 14, 15, 9, 13, 11, 2, 4, 5, 6, 3, 1, 8, 7),
    (11, 13, 12, 15, 10, 16, 9, 14, 3, 8, 4, 7, 6, 5, 1, 2),
    (12, 14, 15, 9, 13, 10, 11, 16, 1, 2, 3, 4, 8, 6, 7, 5),
    (13, 15, 10, 16, 9, 11, 14, 12, 8, 7, 2, 5, 4, 3, 6, 1),
    (14, 9, 13, 10, 11, 12, 16, 15, 6, 1, 8, 2, 7, 4, 5, 3),
    (15, 16, 9, 11, 14, 13, 12, 10, 7, 5, 1, 3, 2, 8, 4, 6),
    (16, 11, 14, 13, 12, 15, 10, 9, 5, 3, 6, 8, 1, 7, 2, 4),
)

Q2_ROWS = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, 1, 4, 3, 6, 5, 8, 7),
    (3, 4, 1, 2, 7, 8, 6, 5),
    (4, 3, 2, 1, 8, 7, 5, 6),
    (5, 6, 8, 7, 1, 2, 4, 3),
    (6, 5, 7, 8, 2, 1, 3, 4),
    (7, 8, 5, 6, 3, 4, 2, 1),
    (8, 7, 6, 5, 4, 3, 1, 2),
)

# featured half-morphism witnesses, as image tuples
Q1_HALF_MAP = tuple(8 if x == 5 else 5 if x == 8 else x for x in range(1, 17))
Q2_HALF_MAP = (1, 2, 5, 6, 3, 4, 8, 7)

PROVENANCE_TAGS = ("external", "trivial", "derived")


def __getattr__(name):
    """parse_loop_file and write_loop_file, the .loop reader and writer,
    loaded on first use (PEP 562): they live in loopformat, which a run on
    catalog keys does not compile, and stay bound here, where the
    benchmark's workloads and tracer look them up."""
    if name in ("parse_loop_file", "write_loop_file"):
        from . import loopformat

        return getattr(loopformat, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# -- constructors ------------------------------------------------------


def make_cyclic(n) -> LoopTable:
    """Cyclic group: k*m = ((k-1 + m-1) mod n) + 1."""
    if n < 1:
        raise ValueError("order must be positive")
    t = LoopTable(cayley(range(n), lambda i, j: (i + j) % n)[0], name="Z%d" % n)
    assert t.is_associative()
    return t


def make_dihedral(n) -> LoopTable:
    """Dihedral group of order n (n even, at least 4).

    Elements 1..n/2 are the rotations r^0..r^(n/2-1); the rest are the
    reflections s*r^0..s*r^(n/2-1), in that order.  With (f, k) standing
    for s^f*r^k, (f, i)*(g, j) is (f xor g, j-i) when g = 1 and
    (f xor g, i+j) otherwise, exponents mod n/2.
    """
    if n < 4 or n % 2:
        raise ValueError("dihedral order must be even and at least 4")
    m = n // 2
    elements = [(f, k) for f in (0, 1) for k in range(m)]
    rows = cayley(elements, lambda a, b: (a[0] ^ b[0], (b[1] - a[1] if b[0] else a[1] + b[1]) % m))[0]
    t = LoopTable(rows, name="D%d" % n)
    assert t.is_associative()
    return t


def make_symmetric3() -> LoopTable:
    """Symmetric group on three letters via composition of one-line maps."""
    perms = [(1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (3, 2, 1), (1, 3, 2)]
    t = LoopTable(cayley(perms, lambda p, q: tuple(p[q[i] - 1] for i in range(3)))[0], name="S3")
    assert t.is_associative()
    return t


def make_quaternion8() -> LoopTable:
    """Quaternion group: 1, -1, i, -i, j, -j, k, -k in that order, each
    held as its coordinates (a, b, c, d) of a + bi + cj + dk and
    multiplied by the Hamilton product."""
    elements = [tuple(s * (i == u) for i in range(4)) for u in range(4) for s in (1, -1)]

    def hamilton(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
                a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)

    t = LoopTable(cayley(elements, hamilton)[0], name="Q8")
    assert t.is_associative()
    return t


def make_chein(G) -> LoopTable:
    """Double of a group: G plus a mirrored copy, Moufang by construction.

    With m = |G|, elements 1..m are G and m+g stands for the mirrored g.
    Products follow g*h = gh, g*(hu) = (hg)u, (gu)*h = (g h^-1)u,
    (gu)*(hu) = h^-1 g.  The result is a group exactly when G is
    commutative; both facts are asserted before returning.
    """
    grows = G.rows

    def product(a, b):
        (g, u), (h, v) = a, b
        if u:
            h = G.right_inverse(h)
        return (grows[h - 1][g - 1] if v else grows[g - 1][h - 1]), u ^ v

    rows = cayley([(g, u) for u in (0, 1) for g in G.elements], product)[0]
    t = LoopTable(rows, name="M(%s,2)" % (G.name or "G"))
    assert t.is_moufang()
    assert t.is_associative() == G.is_commutative()
    return t


# -- the catalog -------------------------------------------------------


def _group_expected(commutative):
    return {
        "associative": (True, "trivial"),
        "commutative": (commutative, "trivial"),
        "moufang": (True, "trivial"),
        "left_automorphic": (True, "trivial"),
        "automorphic": (True, "trivial"),
        "proper_half_exists": (False, "derived"),
    }


def builtin(key) -> CatalogEntry:
    """Fetch one catalog entry by key; raises KeyError for unknown keys."""
    if key not in catalog_keys():
        raise KeyError("unknown catalog key %r" % (key,))
    if key == "Q1":
        return CatalogEntry(
            "Q1",
            LoopTable(Q1_ROWS, name="Q1"),
            {
                "associative": (False, "derived"),
                "commutative": (False, "derived"),
                "moufang": (True, "external"),
                "left_automorphic": (True, "external"),
                "automorphic": (False, "derived"),
                "proper_half_exists": (True, "external"),
            },
            Q1_HALF_MAP,
        )
    if key == "Q2":
        return CatalogEntry(
            "Q2",
            LoopTable(Q2_ROWS, name="Q2"),
            {
                "associative": (False, "derived"),
                "commutative": (False, "derived"),
                "moufang": (False, "external"),
                "left_automorphic": (True, "derived"),
                "automorphic": (True, "external"),
                "proper_half_exists": (True, "external"),
            },
            Q2_HALF_MAP,
        )
    if key == "S3":
        return CatalogEntry(key, make_symmetric3(), _group_expected(False))
    if key == "Q8":
        return CatalogEntry(key, make_quaternion8(), _group_expected(False))
    if key == "M(S3,2)":
        return CatalogEntry(
            key,
            make_chein(make_symmetric3()),
            {
                "associative": (False, "trivial"),
                "commutative": (False, "derived"),
                "moufang": (True, "trivial"),
                "left_automorphic": (False, "derived"),
                "automorphic": (False, "derived"),
                "proper_half_exists": (False, "derived"),
            },
        )
    if key.startswith("Z"):
        return CatalogEntry(key, make_cyclic(int(key[1:])), _group_expected(True))
    return CatalogEntry(key, make_dihedral(int(key[1:])), _group_expected(False))


_KEYS = (*("Z%d" % n for n in range(1, 17)), *("D%d" % n for n in range(6, 17, 2)),
         "S3", "Q8", "M(S3,2)", "Q1", "Q2")


def catalog_keys() -> tuple:
    return _KEYS


def entries():
    """All catalog entries in canonical key order."""
    return [builtin(k) for k in catalog_keys()]


def check_expected(entry) -> list:
    """Recompute every expected property; returns mismatch descriptions."""
    from .halfmorph import half_census
    from .innermaps import is_automorphic, is_left_automorphic

    t = entry.table
    problems = []
    for prop, (value, tag) in sorted(entry.expected.items()):
        if tag not in PROVENANCE_TAGS:
            problems.append("%s: unknown provenance %r" % (prop, tag))
        if prop == "associative":
            actual = t.is_associative()
        elif prop == "commutative":
            actual = t.is_commutative()
        elif prop == "moufang":
            actual = t.is_moufang()
        elif prop == "left_automorphic":
            actual = is_left_automorphic(t)
        elif prop == "automorphic":
            actual = is_automorphic(t)
        elif prop == "proper_half_exists":
            actual = bool(half_census(t).proper)
        else:
            problems.append("%s: no recomputation rule" % prop)
            continue
        if actual != value:
            problems.append("%s: expected %r, recomputed %r" % (prop, value, actual))
    return problems

