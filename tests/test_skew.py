import hashlib
import json
import random
from fractions import Fraction

import pytest
from tests.conftest import bordered_forms, random_invertible, random_skew

from skewrank import catalog, geometry, linalg
from skewrank.certify import restrict_line
from skewrank.forms import Form
from skewrank.pencil import minimal_indices
from skewrank.skew import SkewPolyMatrix, pfaffian

Q = Fraction
AB = ("a", "b")
ABC = ("a", "b", "c")


def test_constructor_validation():
    with pytest.raises(ValueError):
        SkewPolyMatrix(3, AB, {(0, 0): "a"})
    with pytest.raises(ValueError):
        SkewPolyMatrix(3, AB, {(2, 1): "a"})
    with pytest.raises(ValueError):
        SkewPolyMatrix(3, AB, {(0, 1): "a^2"})
    with pytest.raises(ValueError):
        SkewPolyMatrix(3, ("a", "a"), {})
    with pytest.raises(ValueError):
        SkewPolyMatrix.from_coefficient_basis(("a", "a"), [[[0, 1], [-1, 0]]] * 2)
    with pytest.raises(ValueError, match="given twice"):
        SkewPolyMatrix(3, AB, [((0, 1), "a"), ((1, 2), "b"), ((0, 1), "b")])
    with pytest.raises(ValueError, match="given twice"):
        SkewPolyMatrix(3, AB, [((0, 1), "a"), ((0, 1), "0")])
    with pytest.raises(ValueError, match="given twice"):
        SkewPolyMatrix.from_json({"order": 2, "vars": ["a", "b"], "upper": [
            {"i": 0, "j": 1, "form": "a"}, {"i": 0, "j": 1, "form": "b"}]})
    A = SkewPolyMatrix(3, AB, {(0, 1): "a"})
    assert A.entry(1, 0) == -Form.variable(AB, "a")
    assert A.entry(2, 2).is_zero()


def test_pfaffian_base_case_and_sign():
    assert pfaffian([[0, 5], [-5, 0]]) == 5
    A = SkewPolyMatrix(2, AB, {(0, 1): "a"})
    assert str(A.pfaffian_symbolic()) == "a"
    # swapping the two rows and columns flips the sign (det P = -1)
    P = [[0, 1], [1, 0]]
    assert A.congruence_transform(P).pfaffian_symbolic() \
        == -Form.variable(AB, "a")


def test_pfaffian_of_constant_rank4_6x6_is_zero():
    tri = catalog.get("triangle3").matrix
    six = tri.direct_sum(tri)
    assert six.pfaffian_symbolic().is_zero()


def test_pfaffian_block_diagonal_vs_det():
    vars = ABC
    A = SkewPolyMatrix(6, vars, {(0, 1): "a", (2, 3): "b", (4, 5): "c"})
    pf = A.pfaffian_symbolic()
    assert pf in (Form(vars, {(1, 1, 1): 1}), Form(vars, {(1, 1, 1): -1}))
    for p in [(1, 2, 3), (2, -1, 5), (1, 1, 1)]:
        M = A.evaluate_at(p)
        assert pf.evaluate(p) ** 2 == linalg.det(M)


def test_pf_squared_is_det(rng):
    for n in (2, 4, 6, 8, 10):
        for _ in range(4):
            M = random_skew(rng, n)
            assert pfaffian(M) ** 2 == linalg.det(M)


def test_pf_congruence_scaling(rng):
    for n in (2, 4, 6):
        for _ in range(4):
            M = random_skew(rng, n)
            P = random_invertible(rng, n)
            Pt = linalg.transpose(P)
            assert pfaffian(linalg.mat_mul(linalg.mat_mul(Pt, M), P)) \
                == linalg.det(P) * pfaffian(M)


def test_sub_pfaffians():
    M8 = catalog.get("M8").matrix
    full = SkewPolyMatrix(4, AB, {(0, 1): "a", (2, 3): "b"})
    assert full.sub_pfaffians(4) == [full.pfaffian_symbolic()]
    size2 = full.sub_pfaffians(2)
    nonzero = [str(f) for f in size2 if not f.is_zero()]
    assert sorted(nonzero) == ["a", "b"]
    with pytest.raises(ValueError):
        M8.sub_pfaffians(3)
    M7 = catalog.get("M7").matrix
    with pytest.raises(ValueError):
        M7.sub_pfaffians(8)


def _diagonal_blocks(vars, names):
    """Block-diagonal matrix with 2x2 blocks carrying the named variables."""
    return SkewPolyMatrix(2 * len(names), vars,
                          {(2 * k, 2 * k + 1): v for k, v in enumerate(names)})


def test_pfaffian_exponents_reach_the_top_of_their_field():
    # t * J_m has Pfaffian t^m, the largest degree order 2m allows
    for m in (4, 8):
        assert _diagonal_blocks(("t",), ["t"] * m).pfaffian_symbolic() \
            == Form(("t",), {(m,): 1})
        for names in (["a", "b"] * (m // 2), ["a"] * (m - 1) + ["b"]):
            want = (names.count("a"), names.count("b"))
            assert _diagonal_blocks(AB, names).pfaffian_symbolic() \
                == Form(AB, {want: 1})


def test_pf_congruence_scaling_with_rational_linear_entries(rng):
    for n in (4, 6):
        upper = {}
        for i in range(n):
            for j in range(i + 1, n):
                upper[(i, j)] = Form(ABC, {e: Q(rng.randint(-4, 4), rng.randint(1, 5))
                                           for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))})
        A = SkewPolyMatrix(n, ABC, upper)
        assert any(c.denominator > 1 for _, f in A.upper_entries() for _, c in f.terms())
        P = random_invertible(rng, n)
        pf = A.pfaffian_symbolic()
        assert not pf.is_zero()
        assert A.congruence_transform(P).pfaffian_symbolic() == linalg.det(P) * pf


# sha256 of the Forms below, recorded with the Form-valued Pfaffian recursion
PFAFFIAN_GATE = "c17b6e4d1b585723db408742a734daa2207a9fc01afafa6777fa741a869288eb"


def _pfaffian_gate_forms():
    """Rank-size sub-Pfaffians and bordered generators (default covector
    and one seeded rational covector) of every catalog entry and of one
    seeded dense variant of each: an integer congruence composed with a
    rational parameter change."""
    rng = random.Random("pfaffian-gate")
    for name in catalog.names():
        entry = catalog.get(name)
        A = entry.matrix
        P = random_invertible(rng, A.order, -2, 2)
        while True:
            L = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(A.nvars)]
                 for _ in range(A.nvars)]
            if linalg.det(L):
                break
        xi = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(A.order)]
        for M in (A, A.congruence_transform(P).parameter_change(L)):
            yield from M.sub_pfaffians(entry.expected.generic_rank)
            for covector in (geometry.default_covector(M.order), xi):
                yield from bordered_forms(M, covector)


def test_pfaffian_forms_are_pinned():
    h = hashlib.sha256()
    for f in _pfaffian_gate_forms():
        h.update(("%s|%r\n" % (f, f.terms())).encode())
    assert h.hexdigest() == PFAFFIAN_GATE


# sha256 of the lines below, recorded with Fraction matrix products for
# congruences and Form substitution for parameter changes and lines
TRANSFORM_GATE = "a09087595d6f09acbcd95d6101763d8797011c1f223d0c6722ad561ae82fb00b"


def _rational_invertible(rng, n):
    while True:
        M = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        if linalg.det(M):
            return M


def _transform_gate_lines():
    """Every catalog entry under a seeded rational congruence P, parameter
    change L and both, with its bases, nondegeneracy, value and rank at
    two seeded rational points p, q, and its restriction to their line."""
    rng = random.Random("transform-gate")
    for name in catalog.names():
        A = catalog.get(name).matrix
        P = _rational_invertible(rng, A.order)
        L = _rational_invertible(rng, A.nvars)
        while True:
            p, q = ([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(A.nvars)]
                    for _ in range(2))
            if linalg.rank([p, q]) == 2:
                break
        moved = A.congruence_transform(P)
        for M in (A, moved, A.parameter_change(L), moved.parameter_change(L)):
            yield M.dumps()
            yield repr([[[str(x) for x in row] for row in B]
                        for B in M.coefficient_basis()])
            yield repr(M.integer_basis())
            yield repr(M.is_nondegenerate())
            for pt in (p, q):
                yield repr([[str(x) for x in row] for row in M.evaluate_at(pt)])
                yield repr(M.rank_at(pt))
            yield restrict_line(M, p, q).dumps()


def test_transforms_are_pinned():
    h = hashlib.sha256()
    for line in _transform_gate_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == TRANSFORM_GATE


def test_rank_at_examples():
    assert catalog.get("M7").matrix.rank_at((1, 1)) == 6
    assert catalog.get("pi2").matrix.rank_at((1, 0, 0)) == 6
    assert catalog.get("westwick").matrix.rank_at((1, 1, 1, 1)) == 8
    with pytest.raises(ValueError):
        catalog.get("M7").matrix.rank_at((0, 0))


def test_rank_at_always_even(rng):
    for name in ("M8", "pi3", "westwick"):
        A = catalog.get(name).matrix
        for _ in range(12):
            p = tuple(Q(rng.randint(-5, 5)) for _ in range(A.nvars))
            if not any(p):
                continue
            assert A.rank_at(p) % 2 == 0


def test_sub_pfaffians_cut_rank_strata(rng):
    for name in ("rank4_6x6", "conic5", "pi1"):
        A = catalog.get(name).matrix
        for _ in range(8):
            p = tuple(Q(rng.randint(-4, 4)) for _ in range(A.nvars))
            if not any(p):
                continue
            r = A.rank_at(p)
            for size in range(2, A.order + 1, 2):
                vanish = all(f.evaluate(p) == 0 for f in A.sub_pfaffians(size))
                assert vanish == (r < size)


def test_sub_pfaffians_cut_rank_strata_random_matrices(rng):
    # same cross-check on random matrices of linear forms, orders up to 8
    for order in (4, 6, 8):
        entries = {}
        for i in range(order):
            for j in range(i + 1, order):
                f = Form(ABC, {(1, 0, 0): rng.randint(-2, 2),
                               (0, 1, 0): rng.randint(-2, 2),
                               (0, 0, 1): rng.randint(-2, 2)})
                if not f.is_zero() and rng.random() < 0.7:
                    entries[(i, j)] = f
        if not entries:
            continue
        A = SkewPolyMatrix(order, ABC, entries)
        for _ in range(5):
            p = tuple(Q(rng.randint(-3, 3)) for _ in range(3))
            if not any(p):
                continue
            r = A.rank_at(p)
            for size in range(2, order + 1, 2):
                vanish = all(f.evaluate(p) == 0 for f in A.sub_pfaffians(size))
                assert vanish == (r < size)


def test_congruence_preserves_invariants(rng):
    M8 = catalog.get("M8").matrix
    for _ in range(3):
        P = random_invertible(rng, 8)
        assert minimal_indices(M8.congruence_transform(P)).partition == (2, 1)
    with pytest.raises(ValueError):
        M8.congruence_transform([[0] * 8] * 8)


def test_parameter_change():
    M7 = catalog.get("M7").matrix
    assert M7.parameter_change([[1, 0], [0, 1]]) == M7
    swapped = M7.parameter_change([[0, 1], [1, 0]])
    assert minimal_indices(swapped).partition == (3,)
    scaled = M7.parameter_change([[2, 0], [0, 1]])
    assert minimal_indices(scaled).partition == (3,)
    with pytest.raises(ValueError):
        M7.parameter_change([[1, 1], [1, 1]])


def test_direct_sum(rng):
    tri = catalog.get("triangle3").matrix
    nine = tri.direct_sum(tri).direct_sum(tri)
    assert nine.order == 9
    for _ in range(6):
        p = tuple(Q(rng.randint(-4, 4)) for _ in range(3))
        if not any(p):
            continue
        assert nine.rank_at(p) == 3 * tri.rank_at(p)
    M7 = catalog.get("M7").matrix
    assert minimal_indices(M7.direct_sum(M7)).partition == (3, 3)
    padded = M7.direct_sum(SkewPolyMatrix.zero(1, AB))
    assert padded == M7.pad_zero(1)
    with pytest.raises(ValueError):
        tri.direct_sum(M7)


def test_is_nondegenerate():
    assert catalog.get("M7").matrix.is_nondegenerate() == (True, None)
    flag, witness = catalog.get("pi1").matrix.is_nondegenerate()
    assert flag is False
    assert list(witness) == [0, 0, 0, 0, 0, 0, 0, 1]
    flag, witness = catalog.get("M7").matrix.pad_zero(2).is_nondegenerate()
    assert flag is False
    assert any(witness)


def test_json_round_trip():
    for name in ("M8", "pi5", "westwick"):
        A = catalog.get(name).matrix
        assert SkewPolyMatrix.loads(A.dumps()) == A


def _scalar(n, c):
    return [[Q(c) if i == j else Q(0) for j in range(n)] for i in range(n)]


def _one_representation_family():
    """Matrices from every constructor and transform, with equal spaces
    reached by more than one route."""
    rng = random.Random("one-representation")
    for name in catalog.names():
        A = catalog.get(name).matrix
        n, d = A.order, A.nvars
        P = _rational_invertible(rng, n)
        L = _rational_invertible(rng, d)
        while True:
            p, q = ([Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
                    for _ in range(2))
            if linalg.rank([p, q]) == 2:
                break
        Lp, Lq = ([sum(L[k][l] * v[l] for l in range(d)) for k in range(d)]
                  for v in (p, q))
        moved = A.congruence_transform(P)
        yield from (
            A, moved, A.parameter_change(L), moved.parameter_change(L),
            A.congruence_transform(_scalar(n, 2)).congruence_transform(_scalar(n, "1/2")),
            A.parameter_change(_scalar(d, 3)).parameter_change(_scalar(d, "1/3")),
            SkewPolyMatrix.from_coefficient_basis(A.vars, A.coefficient_basis()),
            restrict_line(A, p, q), restrict_line(A, Lp, Lq),
            restrict_line(A.parameter_change(L), p, q),
            A.pad_zero(2), A.direct_sum(SkewPolyMatrix.zero(2, A.vars)),
            A.direct_sum(moved))
    zeros = [[[0] * 4 for _ in range(4)]] * 2
    yield from (
        SkewPolyMatrix.zero(4, AB), SkewPolyMatrix(4, AB, {(0, 1): "0"}),
        SkewPolyMatrix.from_coefficient_basis(AB, zeros),
        SkewPolyMatrix(4, ABC, {(0, 1): "1/3*c"})._substitute(AB, [[1, 0, 0], [0, 1, 0]]),
        SkewPolyMatrix.zero(4, ABC)._substitute(AB, [[1, 2, 3], [0, 1, 1]]),
        SkewPolyMatrix(2, AB, {(0, 1): "1/2*a"}).direct_sum(
            SkewPolyMatrix(2, AB, {(0, 1): "-2/3*b"})),
        SkewPolyMatrix(4, AB, {(0, 1): "1/2*a", (2, 3): "-2/3*b"}))


def test_one_representation():
    """Equality is equality of the JSON text, equal matrices hash alike,
    and the JSON reads back to an equal matrix."""
    family = list(_one_representation_family())
    texts = [json.dumps(A.to_json(), sort_keys=True) for A in family]
    assert len(set(texts)) < len(texts)      # some spaces are reached twice
    for A, s in zip(family, texts):
        assert SkewPolyMatrix.from_json(json.loads(s)) == A
        for B, t in zip(family, texts):
            assert (A == B) == (s == t)
            if s == t:
                assert hash(A) == hash(B)


def test_coefficient_basis_round_trip():
    for name in ("M9", "pi4", "westwick"):
        A = catalog.get(name).matrix
        B = SkewPolyMatrix.from_coefficient_basis(A.vars, A.coefficient_basis())
        assert B == A
