import random
from fractions import Fraction

import pytest
from tests.conftest import (moved, partitions, random_invertible,
                            toeplitz_invariants, toeplitz_minimal_basis,
                            toeplitz_rows)

from skewrank import catalog, linalg, pencil
from skewrank.certify import certify_constant_rank
from skewrank.pencil import (KroneckerInvariants, canonical_form,
                             congruence_to_canonical, equivalent,
                             minimal_indices, pencil_invariants)
from skewrank.skew import SkewPolyMatrix

Q = Fraction
AB = ("a", "b")


def test_minimal_indices_examples():
    assert minimal_indices(catalog.get("M7").matrix).partition == (3,)
    assert minimal_indices(catalog.get("M8").matrix).partition == (2, 1)
    assert minimal_indices(catalog.get("M9").matrix).partition == (1, 1, 1)
    assert minimal_indices(catalog.get("rank4_5x5").matrix).partition == (2,)
    assert minimal_indices(catalog.get("rank4_6x6").matrix).partition == (1, 1)
    inv = minimal_indices(catalog.get("M7").matrix)
    assert inv.padding == 0 and inv.rank == 6


def test_minimal_indices_preconditions():
    with pytest.raises(ValueError):
        minimal_indices(catalog.get("pi1").matrix)
    split = SkewPolyMatrix(4, AB, {(0, 1): "a", (2, 3): "b"})
    with pytest.raises(ValueError):
        minimal_indices(split)


def test_canonical_round_trip_all_partitions_up_to_5():
    for r in range(1, 6):
        for partition in partitions(r):
            cp = canonical_form(partition)
            assert cp.matrix.order == 2 * r + len(partition)
            inv = minimal_indices(cp.matrix)
            assert inv.partition == partition
            assert inv.padding == 0
            assert inv.rank == 2 * r


def test_canonical_matches_printed_pencils():
    assert canonical_form((3,)).matrix == catalog.get("M7").matrix
    assert canonical_form((2, 1)).matrix == catalog.get("M8").matrix
    assert canonical_form((1, 1, 1)).matrix == catalog.get("M9").matrix
    assert canonical_form((2,)).matrix == catalog.get("rank4_5x5").matrix
    assert canonical_form((1, 1)).matrix == catalog.get("rank4_6x6").matrix
    assert canonical_form((1,)).matrix == catalog.get("rank2_3x3").matrix


def test_canonical_form_validation():
    with pytest.raises(ValueError):
        canonical_form(())
    with pytest.raises(ValueError):
        canonical_form((1, 2))
    with pytest.raises(ValueError):
        canonical_form((2, 0))


def test_bookkeeping_identities():
    for name in ("M7", "M8", "M9", "M7p", "M8p", "rank4_6x6"):
        A = catalog.get(name).matrix
        cert = certify_constant_rank(A)
        inv = minimal_indices(A)
        r = cert.generic_rank // 2
        assert sum(inv.partition) == r
        assert len(inv.partition) == A.order - 2 * r - inv.padding
        assert (inv.padding == 0) == A.is_nondegenerate()[0]


def test_padding_survives_rational_scaling_and_congruence():
    # a/2, b/2 entries moved by a congruence with entries 1/2, which mixes
    # the two zero columns into the staircase block
    A = canonical_form((2, 1)).matrix.pad_zero(2)
    half = Q(1, 2)
    A = A.parameter_change([[half, 0], [0, half]])
    P = [[half if j in (i, i + 1) else 0 for j in range(10)] for i in range(10)]
    inv = minimal_indices(A.congruence_transform(P))
    assert (inv.partition, inv.padding, inv.rank) == ((2, 1), 2, 6)


def test_equivalence_examples(rng):
    M7 = catalog.get("M7").matrix
    M8 = catalog.get("M8").matrix
    P = random_invertible(rng, 8)
    assert equivalent(M8, M8.congruence_transform(P)) is True
    assert equivalent(M7.pad_zero(1), M8) is False
    L = random_invertible(rng, 2)
    assert equivalent(M7, M7.parameter_change(L)) is True
    assert equivalent(M7, M8) is False


def test_direct_sum_merges_partitions():
    for p1, p2 in [((2,), (1,)), ((3,), (2, 1)), ((2, 2), (1,))]:
        A = canonical_form(p1).matrix.direct_sum(canonical_form(p2).matrix)
        inv = minimal_indices(A)
        assert inv.partition == tuple(sorted(p1 + p2, reverse=True))
        assert inv.padding == 0


def test_invariance_under_many_transforms(rng):
    cases = {"M7": (3,), "M8": (2, 1), "M9": (1, 1, 1),
             "rank4_5x5": (2,), "rank4_6x6": (1, 1)}
    for name, want in cases.items():
        A = catalog.get(name).matrix
        for k in range(10):
            P = random_invertible(rng, A.order)
            B = A.congruence_transform(P)
            if k % 2:
                B = B.parameter_change(random_invertible(rng, 2))
            inv = minimal_indices(B)
            assert inv.partition == want and inv.padding == 0


def test_pencil_invariants_report_the_normal_rank():
    # M8 plus a regular 2x2 block: normal rank 8, indices (2, 1) only
    A = catalog.get("M8").matrix.direct_sum(
        SkewPolyMatrix(2, AB, {(0, 1): "a + b"}))
    inv = pencil_invariants(*A.integer_basis())
    assert (inv.rank, inv.partition, inv.padding) == (8, (2, 1), 0)
    assert inv.constant is False
    split = SkewPolyMatrix(5, AB, {(0, 1): "a", (2, 3): "b"})
    inv = pencil_invariants(*split.integer_basis())
    assert (inv.rank, inv.partition, inv.padding, inv.constant) == (4, (), 1, False)
    assert pencil_invariants(*catalog.get("M7").matrix.integer_basis()).constant
    with pytest.raises(ValueError):
        pencil_invariants(*SkewPolyMatrix.zero(3, AB).integer_basis())


def test_forced_indices_match_the_full_sequence(rng, monkeypatch):
    steps = []                      # one entry per step the caller drew
    real = pencil._kernel_growth

    def counting(B1, B2):
        for delta, g in enumerate(real(B1, B2)):
            steps.append(delta)
            yield g

    monkeypatch.setattr(pencil, "_kernel_growth", counting)
    forced_ranks = {}
    for r in range(1, 5):
        for partition in partitions(r):
            for pad in range(3):
                A = canonical_form(partition).matrix.pad_zero(pad)
                B = A.congruence_transform(random_invertible(rng, A.order))
                want = KroneckerInvariants(2 * r, partition, pad)
                assert pencil_invariants(*B.integer_basis()) == want
                full = len(steps)
                steps.clear()
                assert pencil_invariants(*B.integer_basis(), 2 * r) == want
                assert len(steps) <= full
                forced_ranks[partition, pad] = len(steps)
                steps.clear()
    # one index left (m' = 1) before any step; the rest equal at
    # delta = 1 (e = 0) or one of them one higher (e = 1) after step 0,
    # ker B1 and one rank; (3) with padding 1 has one index left once
    # step 0 finds the zero
    assert forced_ranks[(1,), 0] == forced_ranks[(3,), 0] == 0
    assert forced_ranks[(1, 1), 0] == forced_ranks[(1, 1, 1), 0] == 1
    assert forced_ranks[(2, 1), 0] == forced_ranks[(2, 1, 1), 0] == 1
    assert forced_ranks[(3,), 1] == 1


def stacked_g0(B1, B2):
    """g_0 = n - rank [B1; B2], the step-0 formula the chain's
    dim E_0 - rank(B2 E_0) replaced: both are dim(ker B1 cap ker B2)."""
    return len(B1) - linalg.rank([list(row) for row in (*B1, *B2)])


def test_step_zero_matches_the_stacked_rank(rng):
    pencils = []
    for r in range(1, 5):
        for partition in partitions(r):
            for pad in range(3):
                A = canonical_form(partition).matrix.pad_zero(pad)
                pencils.append(moved(rng, A).integer_basis())
    for n in range(1, 10):
        for density in (0.0, 0.3, 1.0):
            B1, B2 = ([[0] * n for _ in range(n)] for _ in range(2))
            for B in (B1, B2):
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < density:
                            B[i][j] = rng.randint(-3, 3)
                            B[j][i] = -B[i][j]
            pencils += [(B1, B2), (B1, B1), (B2, [[0] * n for _ in range(n)])]
    A = catalog.get("pi3").matrix
    for _ in range(20):
        p, q = ([rng.randint(-3, 3) for _ in range(3)] for _ in range(2))
        pencils.append((A._combine(p), A._combine(q)))
    seen = set()
    for B1, B2 in pencils:
        g0 = next(pencil._kernel_growth(B1, B2))
        assert g0 == stacked_g0(B1, B2), (B1, B2)
        seen.add(g0)
    assert len(seen) > 3


def test_first_kernel_is_cached_and_immutable():
    B1, B2 = catalog.get("M8").matrix.integer_basis()
    pencil._first_kernel.cache_clear()
    E = next(pencil._chain_steps(B1, B2))[0]
    assert type(E) is tuple and all(type(e) is tuple for e in E)
    assert E == tuple(map(tuple, linalg.nullspace(B1, len(B1))))
    # lists of the same entries read the same cached vectors
    assert next(pencil._chain_steps([list(r) for r in B1], B2))[0] is E
    assert pencil._first_kernel.cache_info().hits == 1
    with pytest.raises(TypeError):
        E[0][0] = 1


def test_inconsistent_constant_rank_raises():
    B1, B2 = catalog.get("M8").matrix.integer_basis()
    assert pencil_invariants(B1, B2, 6) == pencil_invariants(B1, B2)
    # rank 4 leaves four indices summing to 2, all >= 1 after step 0;
    # rank 8 leaves none to carry r = 4; rank 10 exceeds the order
    for rank in (4, 8, 10, 5):
        with pytest.raises(ValueError):
            pencil_invariants(B1, B2, rank)


def test_catalog_runs_each_pencil_sequence_once(monkeypatch):
    # certification and classification share one rank sequence per matrix
    from skewrank import certify, geometry, pencil
    names = [n for n in catalog.names() if catalog.get(n).matrix.nvars == 2]
    assert len(names) == 9
    calls = []

    def counting(B1, B2):
        calls.append(1)
        return pencil_invariants(B1, B2)

    for module in (certify, geometry, pencil):      # every alias callers hold
        if hasattr(module, "pencil_invariants"):
            monkeypatch.setattr(module, "pencil_invariants", counting)
    certify.verdict.cache_clear()
    pencil.invariants_of.cache_clear()
    rows = catalog.reproduce_all(names_filter=names)
    assert rows and all(row.ok for row in rows)
    assert len(calls) == 9


def _assert_congruence(B1, B2):
    """congruence_to_canonical(B1, B2) multiplies out and reports the
    invariants of pencil_invariants."""
    inv, P, m = congruence_to_canonical(B1, B2)
    assert inv == pencil_invariants(B1, B2)
    assert m > 0 and all(type(x) is int for row in P for x in row)
    C = canonical_form(inv.partition).matrix.pad_zero(inv.padding)
    Pt = linalg.transpose(P)
    for B, Ck in zip((B1, B2), C.integer_basis()):
        assert linalg.mat_mul(Pt, linalg.mat_mul(B, P)) == \
            [[m * m * x for x in row] for row in Ck]
    assert linalg.bareiss_det(P) != 0
    return inv


def _assert_matches_toeplitz(B1, B2, kernels=False):
    """pencil_invariants, with and without a proven constant rank, equals
    the block-Toeplitz reference; the minimal basis solves the T_delta,
    has those indices as degrees and independent last coefficients, and
    a constant pencil's congruence multiplies out.  `kernels` also
    compares the degrees with the reference's own minimal basis."""
    want = toeplitz_invariants(B1, B2)
    assert pencil_invariants(B1, B2) == want
    basis = pencil._minimal_basis(B1, B2)
    degrees = sorted(len(cs) - 1 for cs in basis)
    assert degrees == sorted(want.partition + (0,) * want.padding)
    if kernels:
        assert degrees == sorted(len(cs) - 1
                                 for cs in toeplitz_minimal_basis(B1, B2))
    for cs in basis:
        rows = toeplitz_rows(B1, B2, len(cs) - 1)
        assert not any(linalg.mat_vec(rows, [x for c in cs for x in c]))
    assert linalg.bareiss_rank([cs[-1] for cs in basis]) == len(basis)
    if want.constant:
        assert pencil_invariants(B1, B2, want.rank) == want
        assert toeplitz_invariants(B1, B2, want.rank) == want
        assert _assert_congruence(B1, B2) == want
    else:
        assert congruence_to_canonical(B1, B2) is None
    return want


def test_congruence_to_canonical_on_moved_canonical_pencils():
    rng = random.Random("pencil-route")
    count = 0
    for r in range(1, 7):
        for partition in partitions(r):
            for padding in range(4):
                A = canonical_form(partition).matrix.pad_zero(padding)
                inv = _assert_matches_toeplitz(*moved(rng, A).integer_basis())
                assert (inv.partition, inv.padding) == (partition, padding)
                count += 1
    assert count == 116


def test_congruence_to_canonical_on_catalog_pencils_and_planes(rng):
    pencils = [catalog.get(name).matrix for name in catalog.names()
               if catalog.get(name).matrix.nvars == 2]
    assert len(pencils) == 9
    for A in pencils:
        _assert_matches_toeplitz(*A.integer_basis(), kernels=True)
        B = A.congruence_transform(random_invertible(rng, A.order, -2, 2))
        _assert_matches_toeplitz(*B.parameter_change(
            random_invertible(rng, 2, -2, 2)).integer_basis(), kernels=True)
    planes = [catalog.get(name).matrix for name in catalog.names()
              if catalog.get(name).matrix.order == 8
              and catalog.get(name).matrix.nvars == 3
              and catalog.get(name).expected.orbit_dim is not None]
    assert len(planes) == 8
    lines = random.Random("plane-lines")
    for A in planes:
        for B in (A, A.congruence_transform(random_invertible(rng, 8, -2, 2))
                  .parameter_change(random_invertible(rng, 3, -2, 2))):
            B1, B2 = B.integer_basis()[:2]
            assert _assert_matches_toeplitz(B1, B2).rank == 6
        pairs = []
        while len(pairs) < 20:
            p, q = ([lines.randint(-3, 3) for _ in range(3)] for _ in range(2))
            if linalg.rank([p, q]) == 2:
                pairs.append((p, q))
        for p, q in pairs:
            B1, B2 = A._combine(p), A._combine(q)
            assert _assert_matches_toeplitz(B1, B2).rank == 6


def test_congruence_to_canonical_refuses_regular_blocks(rng):
    # a regular block: Pfaffian a^2 + b^2 (4x4), or a + b (2x2)
    blocks = [SkewPolyMatrix(4, AB, {(0, 1): "a", (2, 3): "a",
                                     (0, 2): "b", (1, 3): "-b"}),
              SkewPolyMatrix(2, AB, {(0, 1): "a + b"})]
    for block in blocks:
        for partition in ((1,), (2, 1), (3,)):
            A = canonical_form(partition).matrix.direct_sum(block)
            for B in (A, moved(rng, A)):
                B1, B2 = B.integer_basis()
                assert not pencil_invariants(B1, B2).constant
                assert congruence_to_canonical(B1, B2) is None
    split = SkewPolyMatrix(5, AB, {(0, 1): "a", (2, 3): "b"})
    assert congruence_to_canonical(*split.integer_basis()) is None
    with pytest.raises(ValueError):
        congruence_to_canonical(*SkewPolyMatrix.zero(3, AB).integer_basis())


def test_chain_recursion_matches_toeplitz_on_non_constant_pencils():
    from tests.test_certify import REGULAR_BLOCKS, _pencil_cases

    pencils = [A for A, want in _pencil_cases(REGULAR_BLOCKS[:2])
               if want is None]
    assert len(pencils) == 26
    for A in pencils:
        assert not _assert_matches_toeplitz(*A.integer_basis()).constant


def test_chain_recursion_matches_toeplitz_on_random_integer_pencils():
    rng = random.Random("chain-gate-random")
    seen = set()
    for n in range(2, 11):
        for density in (0.2, 0.4, 0.7, 1.0):
            for _ in range(3):
                B1, B2 = ([[0] * n for _ in range(n)] for _ in range(2))
                for B in (B1, B2):
                    for i in range(n):
                        for j in range(i + 1, n):
                            if rng.random() < density:
                                B[i][j] = rng.randint(-3, 3)
                                B[j][i] = -B[i][j]
                if not any(map(any, B1 + B2)):
                    with pytest.raises(ValueError):
                        toeplitz_invariants(B1, B2)
                    with pytest.raises(ValueError):
                        pencil_invariants(B1, B2)
                    continue
                inv = _assert_matches_toeplitz(B1, B2)
                seen.add(inv.constant)
    assert seen == {True, False}
    for n in (1, 3, 6):
        zero = [[0] * n for _ in range(n)]
        for route in (toeplitz_invariants, pencil_invariants):
            with pytest.raises(ValueError):
                route(zero, zero)
        with pytest.raises(ValueError):
            pencil._minimal_basis(zero, zero)
