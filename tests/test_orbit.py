import random
from fractions import Fraction
from math import comb

import pytest
from tests.conftest import random_invertible

from skewrank import catalog, linalg
from skewrank.orbit import orbit_dimension, rank_exact, tangent_rows
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
