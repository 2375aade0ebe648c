import random
from itertools import combinations
from math import comb

import pytest
from tests.conftest import (moved, partitions, random_invertible,
                            rational_invertible)

from skewrank import catalog, linalg, pencil
from skewrank import orbit
from skewrank.orbit import (orbit_dimension, rank_exact, stabilizer_rows,
                            tangent_rows)
from skewrank.pencil import canonical_form
from skewrank.skew import SkewPolyMatrix

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
            B = A.congruence_transform(rational_invertible(rng, A.order))
            cases.append(("%s/%d" % (name, k),
                          B.parameter_change(rational_invertible(rng, A.nvars))))
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


def test_sparse_rank_matches_echelon_int_on_stabilizer_systems():
    rng = random.Random("stabilizer-gate")
    spaces = [catalog.get(name).matrix for name in catalog.names()]
    for name in catalog.names():
        A = catalog.get(name).matrix
        if catalog.get(name).expected.orbit_dim is not None:
            B = A.congruence_transform(rational_invertible(rng, A.order))
            spaces.append(B.parameter_change(rational_invertible(rng, A.nvars)))
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
                B = moved(rng, A)
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
        cases += [A, moved(rng, A)]
    cases += [catalog.get(name).matrix for name in ("pi6", "westwick")]

    def refuse(partition, *order):
        raise AssertionError("canonical pair built for %r" % (partition,))

    # the canonical pair is read off pencil._staircase; canonical_form is
    # refused too, so no other route to a canonical pair goes unseen
    monkeypatch.setattr(pencil, "_staircase", refuse)
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
    # a scale pin: this dense order-16 net ranks in 0.1 s on its canonical
    # sub-pencil, against 1.2 s for sparse_rank of its own system and 9 s
    # in column order (2-core x86_64, Python 3.11)
    A = catalog.get("pi6").matrix
    A = A.direct_sum(A)
    P = random_invertible(random.Random("pi6+pi6"), 16, -2, 2)
    assert orbit_dimension(A.congruence_transform(P)).orbit_dim == 251


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n)]
            for i in range(n)]


def test_system_nonzeros_count_the_stabilizer_rows():
    rng = random.Random("stabilizer-nonzeros")
    for name in catalog.names():
        A = catalog.get(name).matrix
        for B in (A, moved(rng, A)):
            basis = B.integer_basis()
            assert orbit._system_nonzeros(basis) == \
                sum(map(len, stabilizer_rows(basis))), name
    for partition in ((1,), (2, 1), (3, 1, 1)):
        for padding in range(3):
            A = canonical_form(partition).matrix.pad_zero(padding)
            for d in (2, 3, 4):
                # the canonical pair, then d - 2 full skew matrices
                n = A.order
                dense = [[0 if i == j else 1 if i < j else -1 for j in range(n)]
                         for i in range(n)]
                basis = list(A.integer_basis()) + [dense] * (d - 2)
                assert orbit._system_nonzeros(basis) <= \
                    orbit._canonical_bound(n, d)
                assert orbit._system_nonzeros(basis) == \
                    sum(map(len, stabilizer_rows(basis)))


def test_sparse_inputs_build_no_congruence(monkeypatch):
    def refuse(*args):
        raise AssertionError("canonical route taken")

    monkeypatch.setattr(pencil, "congruence_to_canonical", refuse)
    monkeypatch.setattr(pencil, "invariants_of", refuse)
    rng = random.Random("sparse-orbit")
    for name, want in ORBIT_DIMS.items():
        A = catalog.get(name).matrix
        B = A.congruence_transform(_signed_permutation(rng, A.order)) \
            .parameter_change(_signed_permutation(rng, A.nvars))
        assert orbit_dimension(A).orbit_dim == want, name
        assert orbit_dimension(B).orbit_dim == want, name


def test_dense_nets_rank_their_canonical_sub_pencil(monkeypatch):
    rng = random.Random("net-route")
    found = []
    real = pencil.congruence_to_canonical
    monkeypatch.setattr(pencil, "congruence_to_canonical",
                        lambda B1, B2: found.append(real(B1, B2)) or found[-1])
    for name, want in ORBIT_DIMS.items():
        A = catalog.get(name).matrix
        if A.nvars < 3:
            continue
        dense = A.congruence_transform(random_invertible(rng, A.order, -2, 2)) \
            .parameter_change(random_invertible(rng, A.nvars, -2, 2))
        for B in (moved(rng, A), dense):
            del found[:]
            assert orbit_dimension(B).orbit_dim == want == _own_orbit_dim(B)
            basis = B.integer_basis()
            routed = orbit._system_nonzeros(basis) > \
                orbit._canonical_bound(B.order, B.nvars)
            assert len(found) == routed and (B is not dense or routed), name
            # every catalog net has a constant first pencil
            assert None not in found, name
    # nets whose first pencil has a regular block fall back to their own
    # system: (2, 1) plus a block with Pfaffian a^2 + b^2, and any c
    block = SkewPolyMatrix(4, ("a", "b"), {(0, 1): "a", (2, 3): "a",
                                           (0, 2): "b", (1, 3): "-b"})
    pair = canonical_form((2, 1)).matrix.direct_sum(block).integer_basis()
    n = len(pair[0])
    for k in range(3):
        C = [[0] * n for _ in range(n)]
        for _ in range(6):
            i, j = sorted(rng.sample(range(n), 2))
            C[i][j] += rng.choice((-2, -1, 1, 2))
            C[j][i] = -C[i][j]
        A = SkewPolyMatrix.from_coefficient_basis(("a", "b", "c"),
                                                  list(pair) + [C])
        B = A.congruence_transform(random_invertible(rng, n, -2, 2))
        del found[:]
        assert orbit_dimension(B).orbit_dim == _own_orbit_dim(B)
        assert found == [None]
