import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from tests.conftest import partitions, random_invertible

from skewrank import catalog, linalg, pencil
from skewrank.orbit import (orbit_dimension, rank_exact, stabilizer_rows,
                            tangent_rows)
from skewrank.pencil import canonical_form
from skewrank.skew import SkewPolyMatrix

Q = Fraction

# orbit_dim of every catalog entry: the 14 recorded in the catalog, and
# for the others the value the tangent-row rank gives.
ORBIT_DIMS = {
    "M7": 38, "M7p": 45, "M7pp": 52, "M8": 47, "M8p": 55, "M9": 56,
    "conic5": 21, "dk_steiner": 56, "double_t8": 42, "mixed7": 33,
    "nullcorr6": 26, "pi1": 54, "pi2": 60, "pi3": 58, "pi4": 58, "pi5": 59,
    "pi6": 60, "rank2_3x3": 2, "rank4_5x5": 16, "rank4_6x6": 22,
    "rowblock4": 3, "schwarzenberger": 52, "split6": 26, "steiner6": 26,
    "tquot7": 34, "triangle3": 0, "westwick": 98,
}


def _rational_invertible(rng, n):
    while True:
        M = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        if linalg.det(M) != 0:
            return M


def test_pencil_orbit_dimensions():
    rep = orbit_dimension(catalog.get("M7").matrix)
    assert rep.tangent_rank == 39
    assert rep.orbit_dim == 38
    assert orbit_dimension(catalog.get("M8").matrix).orbit_dim == 47
    assert orbit_dimension(catalog.get("M9").matrix).orbit_dim == 56


def test_padded_orbit_dimensions():
    # padding by zero rows adds the dimension of the chosen subspace:
    # 38 + 7 and 38 + 14 for one and two paddings of the 7x7 pencil
    assert orbit_dimension(catalog.get("M7p").matrix).orbit_dim == 38 + 7
    assert orbit_dimension(catalog.get("M7pp").matrix).orbit_dim == 38 + 14
    assert orbit_dimension(catalog.get("M8p").matrix).orbit_dim == 47 + 8


def test_plane_orbit_dimensions():
    assert orbit_dimension(catalog.get("pi6").matrix).tangent_rank == 61
    assert orbit_dimension(catalog.get("pi6").matrix).orbit_dim == 60
    assert orbit_dimension(catalog.get("schwarzenberger").matrix).orbit_dim == 52


def test_orbit_dims_pinned_over_the_catalog():
    assert sorted(ORBIT_DIMS) == catalog.names()
    for name, want in ORBIT_DIMS.items():
        assert orbit_dimension(catalog.get(name).matrix).orbit_dim == want, name


def test_stabilizer_agrees_with_tangent_rows():
    rng = random.Random("orbit-cross-check")
    cases = [(name, catalog.get(name).matrix) for name in catalog.names()
             if catalog.get(name).expected.orbit_dim is not None]
    assert len(cases) == 14
    for name in ("M8", "pi5", "dk_steiner"):
        A = catalog.get(name).matrix
        for k in range(2):
            B = A.congruence_transform(_rational_invertible(rng, A.order))
            cases.append(("%s/%d" % (name, k),
                          B.parameter_change(_rational_invertible(rng, A.nvars))))
    for name, A in cases:
        assert orbit_dimension(A).tangent_rank == \
            rank_exact(tangent_rows(A)), name


def test_rank_exact_basics():
    assert rank_exact([{0: 1}, {1: 1}]) == 2
    assert rank_exact([{0: 1, 1: 2}, {0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
    assert rank_exact([{0: 1, 5: -1}, {5: 1, 9: 3}, {0: 1, 9: 3}]) == 2
    assert rank_exact([]) == 0
    assert rank_exact([{}, {}]) == 0


def test_gram_rank_agrees_with_dense_elimination():
    for name in ("M7", "pi1"):
        rows = tangent_rows(catalog.get(name).matrix)
        cols = sorted({c for row in rows for c in row})
        dense = [[row.get(c, 0) for c in cols] for row in rows]
        assert rank_exact(rows) == linalg.bareiss_rank(dense), name


def test_orbit_dim_invariance(rng):
    A = catalog.get("M8").matrix
    base = orbit_dimension(A).orbit_dim
    for _ in range(2):
        P = random_invertible(rng, 8)
        assert orbit_dimension(A.congruence_transform(P)).orbit_dim == base
        L = random_invertible(rng, 2)
        assert orbit_dimension(A.parameter_change(L)).orbit_dim == base


def test_report_fields_and_bounds():
    A = catalog.get("pi3").matrix
    rep = orbit_dimension(A)
    assert rep.ambient_grassmannian_dim == 3 * (comb(8, 2) - 3)
    assert rep.orbit_dim <= rep.ambient_grassmannian_dim
    assert rep.tangent_rank >= 1 + A.nvars
    assert rep.orbit_dim == rep.tangent_rank - 1
    assert rep.stabilizer_dim == A.order ** 2 - rep.orbit_dim
    assert set(rep.to_json()) == {"ambient_grassmannian_dim", "tangent_rank",
                                  "orbit_dim", "stabilizer_dim", "seed"}


def test_dependent_generators_rejected():
    A = SkewPolyMatrix(4, ("a", "b"), {(0, 1): "a + b"})
    with pytest.raises(ValueError):
        tangent_rows(A)
    with pytest.raises(ValueError):
        orbit_dimension(A)


def test_orbit_dim_does_not_depend_on_seed():
    for name in ("M7", "pi1", "dk_steiner"):
        A = catalog.get(name).matrix
        reports = [orbit_dimension(A, seed=s) for s in range(3)]
        assert {rep.orbit_dim for rep in reports} == {ORBIT_DIMS[name]}
        assert [rep.seed for rep in reports] == [0, 1, 2]


def _own_orbit_dim(A):
    """orbit_dim from A's own stabilizer system, with no pencil route."""
    return linalg.sparse_rank(stabilizer_rows(A.integer_basis())) - A.nvars ** 2


def _moved(rng, A):
    """A moved by the congruence P = a signed permutation times A.order
    rational transvections, then by a rational parameter change."""
    n = A.order
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[Q(rng.choice((-1, 1))) if perm[i] == j else Q(0) for j in range(n)]
         for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = Q(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        for row in P:
            row[j] += c * row[i]
    return A.congruence_transform(P).parameter_change(
        _rational_invertible(rng, A.nvars))


def test_sparse_rank_matches_echelon_int_on_stabilizer_systems():
    rng = random.Random("stabilizer-gate")
    spaces = [catalog.get(name).matrix for name in catalog.names()]
    for name in catalog.names():
        A = catalog.get(name).matrix
        if catalog.get(name).expected.orbit_dim is not None:
            B = A.congruence_transform(_rational_invertible(rng, A.order))
            spaces.append(B.parameter_change(_rational_invertible(rng, A.nvars)))
    assert len(spaces) == 27 + 14
    for A in spaces:
        ncols = A.order ** 2 + A.nvars ** 2
        rows = stabilizer_rows(A.integer_basis())
        dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        assert linalg.sparse_rank(rows) == \
            len(linalg.echelon_int(dense, ncols)[1])


def _pencil_closed_form(order, partition, padding):
    """The conjectured closed form for a constant-rank pencil: n^2 minus
    4 + sum(2e + 1) + sum over pairs of (2 max + 1 + [equal]), over the
    minimal indices with the padding counted as zeros."""
    eps = list(partition) + [0] * padding
    stab = 4 + sum(2 * e + 1 for e in eps) + sum(
        2 * max(e, f) + 1 + (e == f) for e, f in combinations(eps, 2))
    return order ** 2 - stab


def test_constant_pencils_rank_their_canonical_form():
    rng = random.Random("pencil-route")
    count = 0
    for r in range(1, 7):
        for partition in partitions(r):
            for padding in range(4):
                A = canonical_form(partition).matrix.pad_zero(padding)
                B = _moved(rng, A)
                assert pencil.invariants_of(B).constant
                got = orbit_dimension(B).orbit_dim
                assert got == _own_orbit_dim(B), (partition, padding)
                assert got == _pencil_closed_form(A.order, partition, padding)
                count += 1
    assert count == 116


def test_other_spaces_rank_their_own_system(monkeypatch):
    rng = random.Random("pencil-fallback")
    # a regular 4x4 block with Pfaffian a^2 + b^2 makes the pencil
    # non-constant
    block = SkewPolyMatrix(4, ("a", "b"), {(0, 1): "a", (2, 3): "a",
                                           (0, 2): "b", (1, 3): "-b"})
    cases = []
    for partition in ((1,), (2, 1), (3,)):
        A = canonical_form(partition).matrix.direct_sum(block)
        cases += [A, _moved(rng, A)]
    cases += [catalog.get(name).matrix for name in ("pi6", "westwick")]

    def refuse(partition):
        raise AssertionError("canonical form built for %r" % (partition,))

    monkeypatch.setattr(pencil, "canonical_form", refuse)
    for A in cases:
        if A.nvars == 2:
            assert not pencil.invariants_of(A).constant
        assert orbit_dimension(A).orbit_dim == _own_orbit_dim(A)
    for A in (SkewPolyMatrix(4, ("a", "b"), {(0, 1): "a + b"}),
              SkewPolyMatrix.zero(4, ("a", "b"))):
        with pytest.raises(ValueError, match="linearly dependent"):
            orbit_dimension(A)


def test_dense_sum_of_two_planes():
    # a scale pin: this dense order-16 system ranks in 1.7 s with
    # sparse_rank, against 9 s in column order (2-core x86_64, Python 3.11)
    A = catalog.get("pi6").matrix
    A = A.direct_sum(A)
    P = random_invertible(random.Random("pi6+pi6"), 16, -2, 2)
    assert orbit_dimension(A.congruence_transform(P)).orbit_dim == 251
