"""Named constructors for the worked examples, with expected invariants.

Every entry carries the invariants the toolchain must reproduce; the
harness in :func:`reproduce_all` recomputes them and reports one row per
checked field.  Matrices were transcribed once from their printed upper
triangles and are frozen by content digest (see ``verify_digests``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from fractions import Fraction

from . import linalg
from .certify import certify_constant_rank, verdict
from .forms import Form
from .skew import SkewPolyMatrix

Q = Fraction

AB = ("a", "b")
ABC = ("a", "b", "c")
ABCD = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Expected:
    generic_rank: int = None
    constant: bool = None
    method: str = None
    partition: tuple = None
    padding: int = None
    nondegenerate: bool = None
    tangent_rank: int = None
    orbit_dim: int = None
    c2: int = None
    curve_degree: int = None
    gauss_span_dim: int = None
    jumping: str = None      # "none" | "dk-lines" | "conic" | None (unasserted)

    def items(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                yield f.name, v


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    section: int
    description: str
    matrix: SkewPolyMatrix
    expected: Expected
    version: str = "1"

    def digest(self):
        return self.matrix.digest()


def dk_steiner(lam, mu, nu):
    """Steiner-bundle matrix whose six jumping lines are the coordinate
    triangle plus the lines with dual coordinates `lam`, `mu`, `nu`.

    Each chosen line contributes one row of the off-diagonal block: its
    equation on the diagonal and rescaled copies of the first two
    coordinate forms in the last two columns.  Degenerate configurations
    (some triple of the six lines concurrent) are rejected.
    """
    lam = tuple(Q(x) for x in lam)
    mu = tuple(Q(x) for x in mu)
    nu = tuple(Q(x) for x in nu)
    if len(lam) != 3 or len(mu) != 3 or len(nu) != 3:
        raise ValueError("parameters must be rational triples")
    lines = [(Q(1), Q(0), Q(0)), (Q(0), Q(1), Q(0)), (Q(0), Q(0), Q(1)),
             lam, mu, nu]
    from itertools import combinations
    for trip in combinations(range(6), 3):
        if linalg.bareiss_rank([lines[t] for t in trip]) < 3:
            raise ValueError("degenerate line configuration: lines %r concurrent"
                             % (trip,))
    a, b, c = (Form.variable(ABC, v) for v in ABC)
    upper = {}
    for i, ell in enumerate((lam, mu, nu)):
        upper[(i, 3 + i)] = ell[0] * a + ell[1] * b + ell[2] * c
        if ell[0]:
            upper[(i, 6)] = ell[0] * a
        if ell[1]:
            upper[(i, 7)] = ell[1] * b
    return SkewPolyMatrix(8, ABC, upper)


DK_DEFAULT_PARAMS = ((1, 1, 1), (1, 2, 3), (1, 4, 9))

DK_JUMPING_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9))

NONE_SCAN_LINES = 200    # grid lines that must not jump for "none"
CONIC_SCAN_LINES = 300   # grid lines scanned for the jumping lines of "conic"


def _build_entries():
    M7 = SkewPolyMatrix(7, AB, {(0, 3): "a", (0, 4): "b", (1, 4): "a",
                                (1, 5): "b", (2, 5): "a", (2, 6): "b"})
    M8 = SkewPolyMatrix(8, AB, {(0, 3): "a", (0, 4): "b", (1, 4): "a",
                                (1, 5): "b", (2, 6): "a", (2, 7): "b"})
    M9 = SkewPolyMatrix(9, AB, {(0, 3): "a", (0, 4): "b", (1, 5): "a",
                                (1, 6): "b", (2, 7): "a", (2, 8): "b"})

    entries = [
        CatalogEntry(
            "M7", 2, "canonical rank-6 pencil, splitting (3)", M7,
            Expected(generic_rank=6, constant=True, method="kronecker",
                     partition=(3,), padding=0, nondegenerate=True,
                     tangent_rank=39, orbit_dim=38)),
        CatalogEntry(
            "M8", 2, "canonical rank-6 pencil, splitting (2,1)", M8,
            Expected(generic_rank=6, constant=True, method="kronecker",
                     partition=(2, 1), padding=0, nondegenerate=True,
                     orbit_dim=47, gauss_span_dim=4)),
        CatalogEntry(
            "M9", 2, "canonical rank-6 pencil, splitting (1,1,1)", M9,
            Expected(generic_rank=6, constant=True, method="kronecker",
                     partition=(1, 1, 1), padding=0, nondegenerate=True,
                     orbit_dim=56)),
        CatalogEntry(
            "M7p", 2, "M7 with one zero row and column", M7.pad_zero(1),
            Expected(generic_rank=6, constant=True, partition=(3,), padding=1,
                     nondegenerate=False, orbit_dim=45)),
        CatalogEntry(
            "M7pp", 2, "M7 with two zero rows and columns", M7.pad_zero(2),
            Expected(generic_rank=6, constant=True, partition=(3,), padding=2,
                     nondegenerate=False, orbit_dim=52)),
        CatalogEntry(
            "M8p", 2, "M8 with one zero row and column", M8.pad_zero(1),
            Expected(generic_rank=6, constant=True, partition=(2, 1), padding=1,
                     nondegenerate=False, orbit_dim=55)),
        CatalogEntry(
            "rank2_3x3", 2, "canonical rank-2 pencil",
            SkewPolyMatrix(3, AB, {(0, 1): "a", (0, 2): "b"}),
            Expected(generic_rank=2, constant=True, method="kronecker",
                     partition=(1,), padding=0, nondegenerate=True)),
        CatalogEntry(
            "rank4_5x5", 2, "canonical rank-4 pencil, splitting (2)",
            SkewPolyMatrix(5, AB, {(0, 2): "a", (0, 3): "b",
                                   (1, 3): "a", (1, 4): "b"}),
            Expected(generic_rank=4, constant=True, method="kronecker",
                     partition=(2,), padding=0, nondegenerate=True)),
        CatalogEntry(
            "rank4_6x6", 2, "canonical rank-4 pencil, splitting (1,1)",
            SkewPolyMatrix(6, AB, {(0, 2): "a", (0, 3): "b",
                                   (1, 4): "a", (1, 5): "b"}),
            Expected(generic_rank=4, constant=True, method="kronecker",
                     partition=(1, 1), padding=0, nondegenerate=True)),

        CatalogEntry(
            "triangle3", 3, "3x3 building block, full upper triangle",
            SkewPolyMatrix(3, ABC, {(0, 1): "a", (0, 2): "b", (1, 2): "c"}),
            Expected(generic_rank=2, constant=True, method="macaulay",
                     nondegenerate=True)),
        CatalogEntry(
            "rowblock4", 3, "4x4 building block, single nonzero row",
            SkewPolyMatrix(4, ABC, {(0, 1): "a", (0, 2): "b", (0, 3): "c"}),
            Expected(generic_rank=2, constant=True, method="macaulay",
                     nondegenerate=True)),
        CatalogEntry(
            "conic5", 3, "5x5 net of constant rank 4",
            SkewPolyMatrix(5, ABC, {(0, 3): "a", (0, 4): "b", (1, 2): "a",
                                    (1, 3): "b", (1, 4): "c", (2, 3): "c"}),
            Expected(generic_rank=4, constant=True, method="groebner",
                     nondegenerate=True)),
        CatalogEntry(
            "split6", 3, "6x6: two triangle blocks",
            SkewPolyMatrix(6, ABC, {(0, 1): "a", (0, 2): "b", (1, 2): "c",
                                    (3, 4): "a", (3, 5): "b", (4, 5): "c"}),
            Expected(generic_rank=4, constant=True, method="macaulay",
                     nondegenerate=True)),
        CatalogEntry(
            "nullcorr6", 3, "6x6 net of constant rank 4",
            SkewPolyMatrix(6, ABC, {(0, 3): "a", (0, 4): "b", (0, 5): "c",
                                    (1, 2): "a", (1, 3): "b", (2, 3): "c"}),
            Expected(generic_rank=4, constant=True, method="macaulay",
                     nondegenerate=True)),
        CatalogEntry(
            "steiner6", 3, "6x6 net of constant rank 4",
            SkewPolyMatrix(6, ABC, {(0, 3): "a", (0, 4): "b", (0, 5): "c",
                                    (1, 2): "a", (1, 3): "b", (1, 4): "c"}),
            Expected(generic_rank=4, constant=True, method="macaulay",
                     nondegenerate=True)),
        CatalogEntry(
            "mixed7", 3, "7x7 net of constant rank 4",
            SkewPolyMatrix(7, ABC, {(0, 4): "a", (0, 5): "b", (0, 6): "c",
                                    (1, 2): "a", (1, 3): "b", (2, 3): "c"}),
            Expected(generic_rank=4, constant=True, method="macaulay")),
        CatalogEntry(
            "double_t8", 3, "8x8 net of constant rank 4",
            SkewPolyMatrix(8, ABC, {(0, 5): "a", (0, 6): "b", (0, 7): "c",
                                    (1, 2): "a", (1, 3): "b", (1, 4): "c"}),
            Expected(generic_rank=4, constant=True, method="macaulay")),
        CatalogEntry(
            "tquot7", 3, "7x7 net of constant rank 4",
            SkewPolyMatrix(7, ABC, {(0, 4): "a", (0, 5): "b", (0, 6): "c",
                                    (1, 2): "a", (1, 3): "b", (1, 4): "c"}),
            Expected(generic_rank=4, constant=True, method="macaulay")),

        CatalogEntry(
            "pi1", 4, "8x8 plane, kernel dual splits with a trivial summand",
            SkewPolyMatrix(8, ABC, {(0, 5): "a", (0, 6): "b",
                                    (1, 4): "a", (1, 5): "b", (1, 6): "c",
                                    (2, 3): "a", (2, 4): "b", (2, 5): "c",
                                    (3, 4): "c"}),
            Expected(generic_rank=6, constant=True, method="groebner",
                     nondegenerate=False, c2=0, orbit_dim=54,
                     gauss_span_dim=7, jumping="none")),
        CatalogEntry(
            "pi2", 4, "8x8 plane, kernel dual O(1)+O(2)",
            SkewPolyMatrix(8, ABC, {(0, 3): "a", (0, 4): "b",
                                    (1, 2): "a", (1, 3): "b", (1, 4): "c",
                                    (2, 3): "c", (5, 6): "a", (5, 7): "b",
                                    (6, 7): "c"}),
            Expected(generic_rank=6, constant=True, method="macaulay",
                     nondegenerate=True, c2=2, orbit_dim=60, jumping="none")),
        CatalogEntry(
            "pi3", 4, "8x8 plane, unstable kernel dual",
            SkewPolyMatrix(8, ABC, {(0, 5): "a", (0, 6): "b", (0, 7): "c",
                                    (1, 4): "a", (1, 5): "b",
                                    (2, 3): "a", (2, 4): "b", (2, 5): "c",
                                    (3, 4): "c"}),
            Expected(generic_rank=6, constant=True, method="macaulay",
                     nondegenerate=True, c2=3, orbit_dim=58)),
        CatalogEntry(
            "pi4", 4, "8x8 plane, stable kernel dual with c2 = 5",
            SkewPolyMatrix(8, ABC, {(0, 5): "a", (0, 6): "b", (0, 7): "c",
                                    (1, 4): "a", (1, 5): "b", (1, 6): "c",
                                    (2, 3): "a", (2, 4): "b", (3, 4): "c"}),
            Expected(generic_rank=6, constant=True, method="macaulay",
                     nondegenerate=True, c2=5, orbit_dim=58)),
        CatalogEntry(
            "pi5", 4, "8x8 plane, stable kernel dual with c2 = 4",
            SkewPolyMatrix(8, ABC, {(0, 1): "c", (0, 2): "a", (0, 7): "a",
                                    (1, 2): "b", (1, 7): "b", (2, 3): "c-b",
                                    (2, 6): "a", (3, 6): "b", (4, 5): "a",
                                    (4, 6): "b", (4, 7): "c"}),
            Expected(generic_rank=6, constant=True, method="macaulay",
                     nondegenerate=True, c2=4, orbit_dim=59)),
        CatalogEntry(
            "pi6", 4, "8x8 plane, kernel dual is the plane tangent bundle",
            SkewPolyMatrix(8, ABC, {(0, 1): "c", (0, 3): "a", (0, 7): "a",
                                    (1, 3): "b", (1, 7): "b", (2, 3): "a",
                                    (2, 4): "b", (3, 4): "c", (5, 6): "a",
                                    (5, 7): "b", (6, 7): "c"}),
            Expected(generic_rank=6, constant=True, method="macaulay",
                     nondegenerate=True, c2=3, orbit_dim=60,
                     gauss_span_dim=10, jumping="none")),
        CatalogEntry(
            "schwarzenberger", 4, "8x8 plane, Schwarzenberger kernel dual",
            SkewPolyMatrix(8, ABC, {(0, 3): "a", (0, 4): "b", (0, 5): "c",
                                    (1, 4): "a", (1, 5): "b", (1, 6): "c",
                                    (2, 5): "a", (2, 6): "b", (2, 7): "c"}),
            Expected(generic_rank=6, constant=True, method="macaulay",
                     nondegenerate=True, c2=6, orbit_dim=52, jumping="conic")),
        CatalogEntry(
            "dk_steiner", 4, "8x8 plane from six chosen jumping lines",
            dk_steiner(*DK_DEFAULT_PARAMS),
            Expected(generic_rank=6, constant=True, method="macaulay",
                     nondegenerate=True, c2=6, orbit_dim=56,
                     jumping="dk-lines")),

        CatalogEntry(
            "westwick", 5, "10x10 three-space of constant rank 8",
            SkewPolyMatrix(10, ABCD, {(0, 7): "a", (0, 8): "b",
                                      (1, 6): "a", (1, 7): "b", (1, 9): "c",
                                      (2, 5): "-a", (2, 6): "b", (2, 8): "c",
                                      (2, 9): "d",
                                      (3, 4): "a", (3, 5): "b", (3, 7): "c",
                                      (3, 8): "d",
                                      (4, 6): "c", (4, 7): "-d",
                                      (5, 6): "d"}),
            Expected(generic_rank=8, constant=True, method="macaulay",
                     nondegenerate=True, curve_degree=6)),
    ]
    return {e.name: e for e in entries}


_ENTRIES = None


def entries():
    global _ENTRIES
    if _ENTRIES is None:
        _ENTRIES = _build_entries()
    return _ENTRIES


def names():
    return sorted(entries())


def get(name):
    table = entries()
    if name not in table:
        raise KeyError("unknown catalog entry %r (known: %s)"
                       % (name, ", ".join(names())))
    return table[name]


# Frozen transcription digests; ``verify_digests`` guards against edits.
DIGESTS = {
    'M7': 'd6bcd2627911e9da0de0e1d74f29a5d53e01ad39bfa09a6b96fcf972704f29ea',
    'M7p': '3a04a7180d664137f832a29709d31a13e816fd0a1a115d7083002fdad9aae055',
    'M7pp': 'aaca53147eb20fab9e24be52e70f78c09c4d4336974cb7317ca5b80d063401a0',
    'M8': '31225f0693554a09331feca85c01cf292ed8a40ece8064bdc5bee35662e8c8da',
    'M8p': '6490aa96bb0b93d02ac1d91791aa5c04b399624c206ab590c925a66a9b85aac1',
    'M9': 'ed8bec0cf7dc4fabfff7f81a3f49742ff0f0cb4e331c075e8c342aedbb17c98f',
    'conic5': '7e0c519a0ae166835facdea40b864f67c7c494e7f3fd563a7f653d15bc835f9b',
    'dk_steiner': 'ed1ef8515d3738bfcdaf4937b6db5f31c7c21040c3922922d44dcb5906ace7c2',
    'double_t8': 'a9e79a43e324ae08923b51c78c0ef78d23087a54cd57adfae7805ed60848ffe0',
    'mixed7': 'd8790e8703585479627ffb2385ad0a9f2f2284a91be6cdab0e737b1a410c07da',
    'nullcorr6': '3a0adb2ff7c18e4d075a5d9eb6b8d239c1229f8a0c269fe83265de4df64e00fa',
    'pi1': '0baa11103e6acad03b82a900d8a20cc8fed9d1692ab48155c718af21bac9013d',
    'pi2': 'e81ccfcfe3da5514f3400fde68032f6a27708c786cf539a46eda0cf0c0dd6057',
    'pi3': '15f4dc680d763a3c77540dcd6776ffc606f362e8a2c7d25963fa95c2d27b6f80',
    'pi4': 'fc059a13b52679a822cd497f3f1ad92a8389c64936941392fd95476aa94c2879',
    'pi5': 'd746ed6b1bda7e7049935e8e25c4aa508c683dc6fb257febaecde92ee4cc86e8',
    'pi6': '68ca24fed407070998cf97f793d398aa45d04010fc69102407d80e68cac88b0b',
    'rank2_3x3': 'ae97b2ab15073d5d5b85b51cf966ed13e97c2bbc1a893a07caf2e89b0fae3ac4',
    'rank4_5x5': 'c4a8e61da46168889f714e07214eaad4a5b89812ecf5e06e1169bc2a6d9598be',
    'rank4_6x6': '61b6a9f481f194d6e03b2facf66abef41d531110847507fafc4b8c759d8a4734',
    'rowblock4': '15ebde3b8f4a8946f3d71c4b0c7695f6d8269933738d8c87e40813eccd75e69d',
    'schwarzenberger': '57ea3c49e244a1eb2bec4bbf1d16541a2234008965daaf5353da729fbf7099d7',
    'split6': 'f6f53734a45e56d0f7bc2be54f1f2256c7eb506306b9d2a151f9ae0620b00f58',
    'steiner6': 'b7e5ed1e427d78b31a227b97a9d987bab1af534d275ae82f32af4f6ef261b333',
    'tquot7': '1dc1962d7bf865aae8d4f593cdcce2dd9156bdd69f4355bcb96129cb9feb01a7',
    'triangle3': 'ada9b6bb38980e034d72c4cc32f6dd4ae25574db97b1df2f7df0b2333db165d7',
    'westwick': 'c11d901c2fede88d7e8039b4bdbc31b8b1323cf6f3a41940b8d056edc16560df',
}


def verify_digests():
    bad = {}
    for name, entry in entries().items():
        want = DIGESTS.get(name)
        got = entry.digest()
        if want is not None and want != got:
            bad[name] = (want, got)
    return bad


@dataclass(frozen=True)
class ReportRow:
    name: str
    check: str
    expected: object
    observed: object
    ok: bool


def _observed_invariants(entry, seed=0):
    """Recompute every expected field of one entry.  Imports stay local so
    the data tables above remain importable on their own."""
    from . import geometry, orbit, pencil

    e = entry.expected
    A = entry.matrix
    out = {}
    need_cert = any(k in ("generic_rank", "constant", "method", "c2",
                          "curve_degree", "gauss_span_dim", "jumping")
                    for k, _ in e.items())
    cert = verdict(A) if need_cert else None
    if e.generic_rank is not None:
        out["generic_rank"] = cert.generic_rank
    if e.constant is not None:
        out["constant"] = cert.constant
    if e.method is not None:
        out["method"] = cert.method
    if e.partition is not None or e.padding is not None:
        inv = pencil.minimal_indices(A)
        out["partition"] = inv.partition
        out["padding"] = inv.padding
    if e.nondegenerate is not None:
        out["nondegenerate"] = A.is_nondegenerate()[0]
    if e.tangent_rank is not None or e.orbit_dim is not None:
        rep = orbit.orbit_dimension(A, seed=seed)
        out["tangent_rank"] = rep.tangent_rank
        out["orbit_dim"] = rep.orbit_dim
    if e.c2 is not None:
        out["c2"] = geometry.section_zero_scheme_degree(A, seed=seed)
    if e.curve_degree is not None:
        out["curve_degree"] = geometry.section_zero_scheme_degree(A, seed=seed)
    if e.gauss_span_dim is not None:
        out["gauss_span_dim"] = geometry.gauss_span_dim(A)
    if e.jumping is not None:
        out["jumping"] = _observed_jumping(A, e.jumping, seed)
    return out


def _observed_jumping(A, kind, seed):
    from . import geometry

    if kind == "none":
        scan = geometry.jumping_scan(A, budget=NONE_SCAN_LINES)
        return "none" if not scan.jumping_lines else \
            "jumps:%d" % len(scan.jumping_lines)
    if kind == "dk-lines":
        ok = geometry.verify_jumping_set(A, DK_JUMPING_LINES, seed=seed)
        return "dk-lines" if ok else "mismatch"
    if kind == "conic":
        scan = geometry.jumping_scan(A, budget=CONIC_SCAN_LINES)
        if len(scan.jumping_lines) < 6:
            return "too-few:%d" % len(scan.jumping_lines)
        lines = [l for l, _ in scan.jumping_lines]
        conic = geometry.fit_dual_conic(lines[:5])
        if conic is None:
            return "no-conic"
        if all(geometry.conic_contains(conic, l) for l in lines):
            return "conic"
        return "off-conic"
    raise ValueError("unknown jumping expectation %r" % kind)


def reproduce_all(names_filter=None, sections=None, seed=0, table=None):
    """Run the toolchain over the catalog and compare against expectations.

    Returns report rows ordered by entry name; failures are rows, never
    exceptions.  `table` overrides the entry table (used for harness
    self-tests).
    """
    table = entries() if table is None else table
    rows = []
    for name in sorted(table):
        entry = table[name]
        if names_filter is not None and name not in names_filter:
            continue
        if sections is not None and entry.section not in sections:
            continue
        try:
            observed = _observed_invariants(entry, seed=seed)
        except Exception as exc:          # a crash is a failing row
            rows.append(ReportRow(name, "error", "no exception",
                                  "%s: %s" % (type(exc).__name__, exc), False))
            continue
        for check, want in entry.expected.items():
            got = observed.get(check)
            rows.append(ReportRow(name, check, want, got, got == want))
    return rows


EIGHT_BY_EIGHT_PLANES = ("pi1", "pi2", "pi3", "pi4", "pi5", "pi6",
                         "schwarzenberger", "dk_steiner")


def random_extension_attempts(attempts=20, seed=0):
    """Try to extend 8x8 rank-6 planes by a fourth random generator.

    Each attempt lifts one catalog plane to four variables and adds a
    seeded random skew coefficient matrix for the new variable; the
    certificate of the extended space is returned per attempt.  Finding
    even one constant-rank extension would contradict the recorded
    nonexistence of four-dimensional spaces of 8x8 matrices of constant
    rank 6, so the expectation is that every attempt refutes constancy.
    """
    import random as _random

    rng = _random.Random("extension:%d" % seed)
    out = []
    for t in range(attempts):
        name = EIGHT_BY_EIGHT_PLANES[t % len(EIGHT_BY_EIGHT_PLANES)]
        base = get(name).matrix
        D = [[0] * base.order for _ in range(base.order)]
        placed = 0
        while placed < 6:
            i = rng.randrange(base.order)
            j = rng.randrange(base.order)
            if i == j:
                continue
            i, j = min(i, j), max(i, j)
            coeff = rng.randint(-2, 2)
            if not coeff:
                continue
            D[i][j] += coeff
            D[j][i] -= coeff
            placed += 1
        ext = SkewPolyMatrix.from_coefficient_basis(
            ("a", "b", "c", "d"), base.coefficient_basis() + [D])
        if linalg.rank([[x for row in B for x in row]
                        for B in ext.integer_basis()]) != 4:
            continue                      # not a 4-dimensional space; retry slot
        out.append((name, certify_constant_rank(ext, seed=seed)))
    return out


def format_report(rows, as_table=False, seed=None):
    if as_table:
        w = max([len(r.name) for r in rows] + [4])
        lines = ["%-*s  %-16s  %-18s  %-18s  %s"
                 % (w, "name", "check", "expected", "observed", "ok")]
        for r in rows:
            lines.append("%-*s  %-16s  %-18s  %-18s  %s"
                         % (w, r.name, r.check, r.expected, r.observed,
                            "ok" if r.ok else "FAIL"))
        fails = sum(1 for r in rows if not r.ok)
        tail = "%d checks, %d failures" % (len(rows), fails)
        if seed is not None:
            tail += ", seed %d" % seed
        lines.append(tail)
        return "\n".join(lines)
    out = {"rows": [{"name": r.name, "check": r.check,
                     "expected": str(r.expected), "observed": str(r.observed),
                     "ok": r.ok} for r in rows]}
    if seed is not None:
        out["seed"] = seed
    return json.dumps(out, indent=2)
