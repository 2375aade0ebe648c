import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from tests.conftest import (bordered_forms, random_invertible, random_skew,
                            reference_pf)

from skewrank import catalog, forms, geometry, linalg
from skewrank.certify import certify_constant_rank, generic_rank, restrict_line
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
    with pytest.raises(ValueError, match="at least one"):
        SkewPolyMatrix.from_coefficient_basis((), [])
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


def test_text_entries_build_no_form_and_integer_ones_no_fraction(monkeypatch):
    objs = [catalog.get(n).matrix.to_json() for n in catalog.names()]
    objs = [o for o in objs if not any("/" in e["form"] for e in o["upper"])]
    assert len(objs) > 20

    def refuse(*args):
        raise AssertionError("built a Form or a Fraction")
    for owner, name, value in ((Form, "__init__", refuse),
                               (Form, "_from_clean", classmethod(refuse)),
                               (forms, "Q", refuse), (linalg, "Q", refuse)):
        monkeypatch.setattr(owner, name, value)
    read = [SkewPolyMatrix.from_json(o) for o in objs]
    monkeypatch.undo()
    assert [A.to_json() for A in read] == objs
    # a Form words the error of a non-linear entry
    with pytest.raises(ValueError, match=r"^entry \(0, 1\) is not linear: a\^2 \+ b$"):
        SkewPolyMatrix(2, AB, {(0, 1): "b + a^2"})
    with pytest.raises(ValueError, match="duplicate variable names"):
        SkewPolyMatrix(2, ("a", "a"), {(0, 1): "a"})


@pytest.mark.parametrize("matrices, message", [
    ([[[0, 1], [1, 0]]], "coefficient matrix 0 is not skew"),
    ([[[0, Q(1, 2)], [Q(1, 2), 0]]], "coefficient matrix 0 is not skew"),
    ([[[1, 0], [0, 0]]], "nonzero diagonal in coefficient matrix"),
    ([[[Q(1, 3), 0], [0, 0]]], "nonzero diagonal in coefficient matrix"),
    ([[[0, 1], [-1, 0]], [[0, 2], [2, 0]]], "coefficient matrix 1 is not skew"),
    ([[[0, "x"], ["x", 0]]], "Invalid literal for Fraction"),
])
def test_from_coefficient_basis_rejects_bad_matrices(matrices, message):
    with pytest.raises(ValueError, match=message):
        SkewPolyMatrix.from_coefficient_basis(AB[:len(matrices)], matrices)


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


def _assert_pfaffians_match_the_reference(A):
    """Every principal sub-Pfaffian of A, decoded, equals the dict
    recursion's, and its packed integer is zero exactly when it is."""
    memo = {}
    for size in range(0, A.order + 1, 2):
        for idx in combinations(range(A.order), size):
            want = reference_pf(A, idx, memo)
            assert A._pf(idx) == want, (A, idx)
            assert bool(A._pf_raw(idx)) == bool(want)


def test_every_sub_pfaffian_matches_the_dict_recursion():
    rng = random.Random("pfaffian-reference")
    for name in catalog.names():
        A = catalog.get(name).matrix
        dense = A.congruence_transform(random_invertible(rng, A.order, -2, 2)) \
            .parameter_change(random_invertible(rng, A.nvars))
        for M in (A, dense):
            _assert_pfaffians_match_the_reference(M)
            assert M._pfaffians()[0] > 0


def _count_expansions(monkeypatch):
    """Subsets whose Pfaffian `_pf_raw` expands from now on: the memo
    misses, each recorded before it is filled."""
    from skewrank import skew
    skew._pfaffian_memo.cache_clear()
    misses = []
    raw = SkewPolyMatrix._pf_raw

    def counting(self, idx):
        if idx not in self._pfaffians()[3]:
            misses.append((self, idx))
        return raw(self, idx)

    monkeypatch.setattr(SkewPolyMatrix, "_pf_raw", counting)
    return misses


def _every_sub_pfaffian(A):
    return [A._pf(idx) for size in range(0, A.order + 1, 2)
            for idx in combinations(range(A.order), size)]


def test_equal_integer_bases_share_one_pfaffian_memo(monkeypatch):
    misses = _count_expansions(monkeypatch)
    rng = random.Random("shared-memo")
    for name, packed in (("pi3", True), ("westwick", True), (None, False)):
        if name is None:            # five variables at order 6: dict memo
            A = SkewPolyMatrix.from_coefficient_basis(
                tuple("abcde"), [random_skew(rng, 6, -9, 9) for _ in range(5)])
        else:
            A = catalog.get(name).matrix
        text = A.dumps()
        first = SkewPolyMatrix.loads(text)
        pfs = _every_sub_pfaffian(first)
        assert (first._pfaffians()[0] > 0) == packed
        built = len(misses)
        assert built > 0
        lam = Q(rng.choice((2, 3, 5)), rng.choice((1, 7)))
        copies = [
            SkewPolyMatrix.loads(text),           # the same JSON again
            SkewPolyMatrix.from_coefficient_basis(   # a positive multiple
                A.vars, [[[lam * x for x in row] for row in B]
                         for B in A.coefficient_basis()]),
            SkewPolyMatrix.from_coefficient_basis(   # renamed variables
                tuple("v%d" % k for k in range(A.nvars)), A.coefficient_basis()),
        ]
        for B in copies:
            assert B is not first and B.integer_basis() == first.integer_basis()
            assert _every_sub_pfaffian(B) == pfs
            assert B._pfaffians()[3] is first._pfaffians()[3]
            _assert_pfaffians_match_the_reference(B)
        assert len(misses) == built
        assert copies[1] != first and copies[1]._lam == lam * first._lam
        # a congruent copy has another basis, so it builds its own memo
        C = A.congruence_transform(random_invertible(rng, A.order, -2, 2))
        assert C.integer_basis() != A.integer_basis()
        _every_sub_pfaffian(C)
        assert len(misses) > built
        assert all(M is C for M, _ in misses[built:])
        assert C._pfaffians()[3] is not first._pfaffians()[3]
        _assert_pfaffians_match_the_reference(C)
        del misses[:]


def test_the_shared_pfaffian_memos_stay_bounded(rng):
    from skewrank import skew
    skew._pfaffian_memo.cache_clear()
    bases = set()
    limit = skew._pfaffian_memo.cache_info().maxsize
    assert limit is not None
    while len(bases) < 2 * limit:
        A = SkewPolyMatrix.from_coefficient_basis(
            ABC, [random_skew(rng, 4, -3, 3) for _ in ABC])
        A.pfaffian_symbolic()
        bases.add(A.integer_basis())
    info = skew._pfaffian_memo.cache_info()
    assert 0 < info.currsize <= info.maxsize < len(bases)


def generic_skew(n):
    """The generic skew matrix of order n: one variable per upper entry."""
    pairs = list(combinations(range(n), 2))
    vars = tuple("x%d_%d" % ij for ij in pairs)
    return SkewPolyMatrix(n, vars, dict(zip(pairs, vars)))


def test_pfaffians_with_many_variables_are_kept_as_dicts():
    # packed, a generic order 6 (15 variables) would need units of
    # 2^(6 * 4^13) bits and order 8 (28 variables) units of 2^(9 * 5^26)
    for n, terms in ((4, 3), (6, 15), (8, 105)):
        A = generic_skew(n)
        start = time.perf_counter()
        pf = A.pfaffian_symbolic()
        cert = certify_constant_rank(A)
        assert time.perf_counter() - start < 1
        assert A._pfaffians()[0] == 0
        assert len(pf.terms()) == terms
        assert all(abs(c) == 1 for _, c in pf.terms())
        assert (cert.generic_rank, cert.constant) == (n, False)
        _assert_pfaffians_match_the_reference(A)


def test_pfaffians_on_both_sides_of_the_packing_choice():
    # order 6 has degree-3 Pfaffians: 49 slots for the 20 cubics in four
    # variables are packed, 193 slots for the 35 cubics in five are not
    rng = random.Random("packing-choice")
    for d, packed in ((4, True), (5, False)):
        vars = tuple("abcde"[:d])
        A = SkewPolyMatrix.from_coefficient_basis(
            vars, [random_skew(rng, 6, -9, 9) for _ in vars])
        _assert_pfaffians_match_the_reference(A)
        assert (A._pfaffians()[0] > 0) == packed
        cert = certify_constant_rank(A)
        assert (cert.generic_rank, cert.constant) == (6, False)


def test_one_variable_pfaffian_matches_the_dict_recursion(rng):
    for n in (2, 4, 6, 8):
        for _ in range(4):
            M = random_skew(rng, n, -10 ** 9, 10 ** 9)
            A = SkewPolyMatrix.from_coefficient_basis(("t",), [M])
            top = reference_pf(A, tuple(range(n)), {})
            assert pfaffian(M) == A._lam ** (n // 2) * sum(top.values())


# Each packed Pfaffian is read in slots of w bits, w two bits above the
# coefficient bound: a single coefficient at the bound (10^9 * a), mixed
# signs, and negative coefficients in slot 0 (the last variable, c here)
# that borrow from the slots above.
WIDTH_CASES = [
    (("a",), {(0, 1): "1000000000*a"}),
    (("a",), {(0, 1): "-1000000000*a"}),
    (AB, {(0, 1): "1000000000*a"}),
    (AB, {(0, 1): "1000000000*a - 999999999*b"}),
    (ABC, {(0, 1): "a + b - 1000000000*c", (2, 3): "999999999*a - b - c",
           (0, 2): "-1000000000*c", (1, 3): "1000000000*b - 7*c"}),
    (ABC, {(0, 1): "1000000000*a - 1000000000*c", (2, 3): "a - 1000000000*c",
           (4, 5): "1000000000*b - 1000000000*c"}),
]


@pytest.mark.parametrize("vars, upper", WIDTH_CASES)
def test_packed_pfaffians_at_the_width_bound(vars, upper):
    A = SkewPolyMatrix(max(j for _, j in upper) + 1, vars, upper)
    _assert_pfaffians_match_the_reference(A)


def test_packed_pfaffians_with_mixed_signs_near_a_billion():
    rng = random.Random("pfaffian-width")
    for n, vars in ((4, AB), (6, ABC), (6, ("a", "b", "c", "d"))):
        mats = [random_skew(rng, n, -10 ** 9, 10 ** 9) for _ in vars]
        _assert_pfaffians_match_the_reference(
            SkewPolyMatrix.from_coefficient_basis(vars, mats))
    westwick = catalog.get("westwick").matrix
    assert westwick.nvars == 4
    _assert_pfaffians_match_the_reference(
        westwick.congruence_transform(random_invertible(rng, 10, -9, 9)))


def test_pfaffian_out_of_packing_range_is_a_value_error():
    # seven variables get 8-bit groebner fields, so degree 128 is too high
    A = SkewPolyMatrix.zero(256, tuple("abcdefg"))
    for read in (A.pfaffian_symbolic, lambda: generic_rank(A)):
        with pytest.raises(ValueError, match="out of packing range"):
            read()


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
